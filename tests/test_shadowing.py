import csv
import dataclasses
import hashlib
import io
import json
from fractions import Fraction

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeshadow import shadowing
from cubeshadow._intervals import widen
from cubeshadow.covering import (
    ChainedCertificate,
    CoveringConfig,
    Rectangle,
    certify_chained,
    check_chain,
    check_covering,
    check_coverings,
    expansion_frame,
)
import fraction_reference
import scalar_reference as ref
from cubeshadow.dynamics import (
    Direction,
    affine_map,
    builtin_map,
    eval_point,
    identity_map,
    toral_map,
)
from cubeshadow.errors import (
    BrokenChainError,
    DeltaTooLargeError,
    NoSurvivingCellError,
    UncertifiedTransitionError,
)
from cubeshadow.exact import exact_step, minimal_period, periodic_points
from cubeshadow.geometry import Box, Space, chi, make_subdivision
from cubeshadow.shadowing import (
    Drift,
    RoundToGrid,
    UniformNoise,
    PseudoOrbit,
    _bisect_cell,
    _project,
    _window_errors,
    generate_pseudo_orbit,
    itinerary,
    orbit_csv,
    periodic_shadow,
    pseudo_orbit,
    pseudo_orbit_from_json,
    shadow,
    shadow_result_from_json,
    specification_splice,
    step_chain,
    step_defects,
    verify_shadow,
)
from cubeshadow.transition import build_graph

CAT = builtin_map("toral [[2,1],[1,1]]")
S3 = make_subdivision(2, 3, Space.TORUS)
G3 = build_graph(CAT, S3)
CERT3 = certify_chained(CAT, S3, G3)


def noisy_orbit(n_steps=30, delta=1e-4, seed=3):
    return generate_pseudo_orbit(CAT, (0.2, 0.3), delta, n_steps, UniformNoise(seed))


# --- pseudo-orbit container and factory -------------------------------------

def test_factory_rejects_defects_at_or_above_delta():
    pts = [(0.1, 0.1), (0.35, 0.25)]  # true image of the first is (0.3, 0.2)
    with pytest.raises(ValueError):
        pseudo_orbit(CAT, pts, 0.05)
    p = pseudo_orbit(CAT, pts, 0.08)
    assert max(step_defects(CAT, p)) == pytest.approx(0.0707, abs=1e-3)


def test_zero_delta_demands_exact_steps():
    with pytest.raises(ValueError):
        pseudo_orbit(CAT, [(0.1, 0.1), (0.3 + 1e-12, 0.2)], 0.0)


def test_periodic_indexing_wraps():
    p = pseudo_orbit(CAT, [(0.01, 0.01)], 0.03, periodic=1)
    assert p.point(7) == p.point(0)
    assert p.window == (0, 0)


def test_window_indexing_is_inclusive():
    p = noisy_orbit()
    assert p.window == (-30, 30)
    assert p.point(-30) == p.points[0]
    assert p.point(30) == p.points[-1]
    with pytest.raises(IndexError):
        p.point(31)


_ERROR_MAPS = {
    "cat": CAT,
    "perturbed": builtin_map("perturbed [[2,1],[1,1]] eta=0.001 freq=1"),
    "cube-affine": affine_map([[0.5, 0.1], [0.05, 0.45]], [0.2, 0.3], Space.CUBE),
}
# Differences at and within a few ulps of +-1/2, where the nearest lift
# flips, and some anywhere in (-1, 1).
_DIFFERENCES = st.one_of(
    st.sampled_from([0.5, -0.5]),
    st.floats(0.5 - 1e-15, 0.5 + 1e-15),
    st.floats(-0.5 - 1e-15, -0.5 + 1e-15),
    st.floats(-1.0, 1.0),
)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=40)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(_ERROR_MAPS))
def test_step_and_window_errors_follow_the_one_pair_rule(name, data):
    # step_defects and the float window errors are the batched form of one
    # nearest-lift rule; every row must have the bits of the pair alone.
    f = _ERROR_MAPS[name]
    unit = st.floats(0.0, 1.0, exclude_max=True)
    k = data.draw(st.integers(1, 8))
    diffs = data.draw(st.lists(st.tuples(_DIFFERENCES, _DIFFERENCES), min_size=k, max_size=k))
    periodic = data.draw(st.booleans())

    ys = [data.draw(st.tuples(unit, unit))]
    for d in diffs[: k - 1]:
        image = eval_point(f, Direction.FORWARD, ys[-1])
        ys.append(tuple(float(v) for v in image - np.array(d)))
    p = PseudoOrbit(tuple(ys), 1.0, f.space, periodic=k if periodic else None)
    ends = ys[1:] + ys[:1] if periodic else ys[1:]
    want = [
        ref.step_error(f.space, eval_point(f, Direction.FORWARD, y), z)
        for y, z in zip(ys, ends)
    ]
    assert _hex(step_defects(f, p)) == _hex(want)

    orbit = [tuple(float(v) for v in np.add(y, d)) for y, d in zip(ys, diffs)]
    lo = -data.draw(st.integers(0, k - 1)) if not periodic else 0
    window = dataclasses.replace(p, lo=lo)
    want = [ref.step_error(f.space, x, y) for x, y in zip(orbit, ys)]
    assert _hex(_window_errors(window, orbit)) == _hex(want)


# --- generation modes --------------------------------------------------------

def test_uniform_noise_two_sided_and_within_delta():
    p = noisy_orbit()
    defects = step_defects(CAT, p)
    assert len(defects) == 60
    assert 0.0 < max(defects) < 1e-4


def test_round_to_grid_lands_on_grid():
    p = generate_pseudo_orbit(CAT, (0.2, 0.3), 0.02, 20, RoundToGrid(8))
    assert p.window == (-20, 20)
    scale = 2 ** 8
    for k in range(-20, 21):
        if k == 0:
            continue  # the seed point itself is not snapped
        assert all(
            abs(v * scale - round(v * scale)) < 1e-9 for v in p.point(k)
        )
    assert max(step_defects(CAT, p)) < 0.02


def test_drift_moves_along_a_line():
    ident = identity_map(2)
    p = generate_pseudo_orbit(ident, (0.5, 0.5), 0.01, 10, Drift((1.0, 0.0)))
    assert p.window == (-10, 10)
    step = 0.01 * (1 - 1e-6)  # drift stays strictly inside the stated delta
    for k in range(-10, 11):
        assert p.point(k)[0] == pytest.approx((0.5 + step * k) % 1.0, abs=1e-14)
        assert p.point(k)[1] == pytest.approx(0.5, abs=1e-15)


def test_zero_delta_generates_a_true_forward_orbit():
    p = generate_pseudo_orbit(CAT, (0.2, 0.3), 0.0, 50, UniformNoise(0))
    assert p.window == (0, 50)  # float inverse cannot promise exact backward steps
    assert p.delta == 0.0
    assert max(step_defects(CAT, p)) == 0.0


# --- itineraries -------------------------------------------------------------

def test_itinerary_follows_the_cubes():
    p = noisy_orbit()
    itin = itinerary(p, G3)
    assert len(itin) == 61
    for y, i in zip(p.points, itin):
        assert ref.cube_of_point(S3, y) == i


def test_itinerary_delta_gate():
    p = pseudo_orbit(CAT, [(0.1, 0.1), (0.35, 0.25)], 0.08)
    with pytest.raises(DeltaTooLargeError):
        itinerary(p, G3)


def test_known_itinerary_membership_is_checked():
    wrong = ref.cube_of_point(S3, (0.9, 0.9))
    p = pseudo_orbit(CAT, [(0.1, 0.1)], 0.01, known_itinerary=[wrong])
    with pytest.raises(BrokenChainError):
        itinerary(p, G3)


@pytest.mark.parametrize("bad", [S3.count, -1])
def test_known_itinerary_naming_no_cube_is_refused(bad):
    # A declared cube outside 0..count-1 is refused by name before any
    # point is checked against it.
    p = pseudo_orbit(CAT, [(0.1, 0.1), (0.3, 0.2)], 0.01, known_itinerary=[0, bad])
    with pytest.raises(ValueError, match=rf"^cube index {bad} out of range$"):
        itinerary(p, G3)


# --- covering chains ---------------------------------------------------------

def _errors(f, p):
    """p's step errors from one lift, as a shadow request passes them."""
    return shadowing._step_errors(f, p, shadowing._step_lift(f, p))


def test_step_chain_certifies_every_step():
    p = noisy_orbit()
    chain = step_chain(CAT, p, _errors(CAT, p))
    assert len(chain.rectangles) == 61
    assert len(chain.certificates) == 60
    for cert in chain.certificates:
        assert cert.exit_margin > 0.0
        assert cert.confinement_margin > 0.0


@settings(max_examples=12)
@given(
    kind=st.sampled_from(["cat", "perturbed"]),
    periodic=st.booleans(),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 12),
)
def test_batched_step_chain_rows_match_single_checks(kind, periodic, seed, steps):
    # Each row of the one batched covering call must get the margins,
    # strip and orientation its pair gets when checked alone.
    f = CAT if kind == "cat" else PERTURBED
    rng = np.random.default_rng(seed)
    if periodic:
        cycle = [(0.2, 0.4), (0.8, 0.6)]  # a 2-cycle of the cat map
        points = [tuple(v + 1e-4 * rng.random() for v in q) for q in cycle]
        p = pseudo_orbit(f, points, 0.01, periodic=2)
    else:
        p = generate_pseudo_orbit(f, tuple(rng.random(2)), 1e-4, steps, UniformNoise(seed))
    chain = step_chain(f, p, _errors(f, p))
    rects = chain.rectangles
    pairs = list(zip(rects, rects[1:] + rects[:1] if periodic else rects[1:]))
    cfg = CoveringConfig(min_margin=1e-12)
    assert list(chain.certificates) == [check_covering(f, a, b, cfg) for a, b in pairs]
    # ... and the same in any other batch.
    flipped = check_coverings(f, [b for _, b in pairs][::-1] + [a for a, _ in pairs],
                              [a for a, _ in pairs][::-1] + [b for _, b in pairs], cfg)
    assert flipped[len(pairs):] == list(chain.certificates)


@settings(max_examples=8)
@given(
    kind=st.sampled_from(["cat", "perturbed"]),
    periodic=st.booleans(),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 12),
)
def test_step_chain_array_rows_match_rebuilt_rectangles(kind, periodic, seed, steps):
    # The chain's columns must be exactly what check_covering finds for
    # Rectangles rebuilt from its lo/hi rows and frame.
    f = CAT if kind == "cat" else PERTURBED
    rng = np.random.default_rng(seed)
    if periodic:
        points = [tuple(v + 1e-4 * rng.random() for v in q) for q in [(0.2, 0.4), (0.8, 0.6)]]
        p = pseudo_orbit(f, points, 0.01, periodic=2)
    else:
        p = generate_pseudo_orbit(f, tuple(rng.random(2)), 1e-4, steps, UniformNoise(seed))
    chain = step_chain(f, p, _errors(f, p))
    rects = [Rectangle(Box(tuple(a), tuple(b), p.space), chain.frame)
             for a, b in zip(chain.lo.tolist(), chain.hi.tolist())]
    pairs = zip(rects, rects[1:] + rects[:1] if periodic else rects[1:])
    singles = [check_covering(f, a, b, CoveringConfig(min_margin=1e-12)) for a, b in pairs]
    rows = chain.strips
    assert len(singles) == len(rows.h0) and not any(rows.reasons)
    columns = (rows.h0, rows.h1, rows.exit_margin, rows.confinement_margin, rows.orientation)
    assert [(*c.h_range, c.exit_margin, c.confinement_margin, c.orientation)
            for c in singles] == list(zip(*(col.tolist() for col in columns)))


def test_projections_have_the_bits_of_row_dot_defect():
    # _project replaces one ``row @ d`` per row and defect; every entry must
    # keep its bits, for frame rows (strided views) and other functionals.
    rng = np.random.default_rng(11)
    frame_rows = expansion_frame(CAT)[0]
    for rows in (frame_rows, np.asarray(frame_rows)[[0, -1]],
                 np.linalg.inv(rng.normal(size=(2, 2)))):
        for scale in (1e-8, 1e-4, 1.0):
            defects = rng.normal(size=(500, 2)) * scale
            got = _project(rows, defects)
            assert got.tolist() == [[float(row @ d) for d in defects] for row in rows]


_CORNER = "affine [[1.5,0.25],[0.25,0.5]] offset=[-0.499975,-0.249925]"


def test_columnar_chain_off_the_cube_raises_the_box_error():
    # Near the corner fixed point (0.9999, 0.0001) of this map the chain's
    # rectangles leave [0, 1], and the columnar check says so as Box does.
    f = builtin_map(_CORNER, "cube")
    p = generate_pseudo_orbit(f, (0.9999, 0.0001), 1e-4, 3, UniformNoise(3))
    with pytest.raises(ValueError, match=r"^box coordinates must lie within \[0, 1\]$"):
        step_chain(f, p, _errors(f, p))


@pytest.mark.parametrize(
    "space, lo, hi, frame",
    [
        (Space.CUBE, [[0.1, 0.2], [0.3, -0.1]], [[0.2, 0.3], [0.4, 0.1]], None),
        (Space.CUBE, [[0.1, 0.2], [0.3, 0.9]], [[0.2, 0.3], [0.4, 1.1]], None),
        (Space.TORUS, [[0.1, 0.2], [-1.5, 0.3]], [[0.2, 0.3], [-1.4, 0.4]], None),
        (Space.TORUS, [[0.1, 0.2], [0.3, 0.3]], [[0.2, 0.3], [1.4, 0.4]], None),
        (Space.TORUS, [[0.1, 0.2], [0.3, 0.4]], [[0.2, 0.3], [0.2, 0.5]], None),
        (Space.TORUS, [[0.1, 0.2], [0.3, 0.4]], [[0.2, 0.3], [0.4, 0.4]], None),
        (Space.TORUS, [[0.1, 0.2]], [[0.2, 0.3]], ((1.0, 0.0), (0.0, 2.0))),
        (Space.TORUS, [[0.1, 0.2]], [[0.2, 0.3]], ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))),
    ],
    ids=["cube-below", "cube-above", "torus-range", "torus-width", "lo-above-hi",
         "zero-width", "not-orthonormal", "frame-shape"],
)
def test_columnar_checks_raise_what_box_and_rectangle_raise(space, lo, hi, frame):
    with pytest.raises(ValueError) as one_by_one:
        [Rectangle(Box(tuple(a), tuple(b), space), frame) for a, b in zip(lo, hi)]
    with pytest.raises(ValueError) as columnar:
        check_chain(CAT, np.array(lo), np.array(hi), frame, space, False, CoveringConfig())
    assert str(columnar.value) == str(one_by_one.value)


# The 72 hyperbolic SL(2, Z) matrices with entries in -4..4, most of them
# not normal: the anchored pairs and the chain's exit sizing must carry the
# Schur coupling of the frame.
_SL2 = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-4, 5), repeat=4)
        if a * d - b * c == 1 and abs(a + d) > 2]


@settings(max_examples=6)
@given(matrix=st.sampled_from(_SL2), seed=st.integers(0, 2**16))
def test_hyperbolic_sl2z_maps_certify_and_shadow(matrix, seed):
    f = toral_map(matrix)
    s = make_subdivision(2, 4, Space.TORUS)
    g = build_graph(f, s)
    cert = certify_chained(f, s, g)
    assert isinstance(cert, ChainedCertificate)
    p = generate_pseudo_orbit(f, (0.2, 0.3), 1e-4, 20, UniformNoise(seed))
    res = shadow(f, p, cert, chi(s), g=g)
    assert verify_shadow(f, res.point, p, chi(s)).ok


def test_negative_trace_maps_shadow_exactly():
    # The expanding eigenvalue is the larger in magnitude, here negative.
    f = toral_map(((-2, -1), (-1, -1)))
    s = make_subdivision(2, 3, Space.TORUS)
    g = build_graph(f, s)
    p = generate_pseudo_orbit(f, (0.2, 0.3), 1e-4, 30, UniformNoise(0))
    res = shadow(f, p, certify_chained(f, s, g), 0.01, g=g)
    assert res.exact and res.eps_achieved < 3 * p.delta


def test_step_chain_needs_hyperbolicity():
    ident = identity_map(2)
    p = generate_pseudo_orbit(ident, (0.5, 0.5), 0.01, 10, Drift((1.0, 0.0)))
    with pytest.raises(UncertifiedTransitionError):
        step_chain(ident, p, _errors(ident, p))


# --- shadowing a noisy orbit -------------------------------------------------

def test_shadow_tracks_within_three_delta():
    p = noisy_orbit()
    res = shadow(CAT, p, CERT3, eps=0.01, g=G3)
    assert res.exact
    assert res.window == (-30, 30)
    assert res.eps_achieved == pytest.approx(1.2428124518512186e-4, abs=1e-12)
    assert res.eps_achieved < 3 * p.delta


def test_verify_shadow_recomputes_the_error():
    p = noisy_orbit()
    res = shadow(CAT, p, CERT3, eps=0.01, g=G3)
    rep = verify_shadow(CAT, res.point, p, 0.01)
    assert rep.ok
    assert rep.max_err == pytest.approx(res.eps_achieved, abs=1e-15)
    assert len(rep.errors) == 61
    assert rep.errors[rep.argmax_k - p.lo] == rep.max_err


def test_verify_shadow_rejects_a_wrong_point():
    p = noisy_orbit()
    res = shadow(CAT, p, CERT3, eps=0.01, g=G3)
    wrong = tuple(v + Fraction(1, 10) for v in res.point)
    assert not verify_shadow(CAT, wrong, p, 0.01).ok


def test_shadow_of_a_true_orbit_is_the_orbit():
    p = generate_pseudo_orbit(CAT, (0.2, 0.3), 0.0, 50, UniformNoise(0))
    res = shadow(CAT, p, CERT3, eps=0.01, g=G3)
    assert res.eps_achieved < 1e-15
    assert res.point_floats == (0.2, 0.3)


@pytest.mark.parametrize(
    "graph",
    [
        lambda: build_graph(CAT, make_subdivision(2, 4, Space.TORUS)),
        lambda: build_graph(toral_map([[1, 1], [1, 2]]), S3),
    ],
    ids=["other-subdivision", "other-map"],
)
@pytest.mark.parametrize("periodic", [False, True], ids=["shadow", "periodic"])
def test_a_graph_the_certificate_was_not_built_on_is_refused(graph, periodic):
    # The itinerary would be read in the graph's subdivision and gated on
    # its pair codes, so a mismatch is bad input, not a broken chain.
    if periodic:
        p, solve = pseudo_orbit(CAT, [(0.01, 0.01)], 0.023, periodic=1), periodic_shadow
    else:
        p, solve = noisy_orbit(), shadow
    with pytest.raises(ValueError, match="is not the certificate's graph"):
        solve(CAT, p, CERT3, chi(S3), g=graph())


# --- periodic shadowing ------------------------------------------------------

def test_periodic_shadow_finds_the_fixed_point():
    p = pseudo_orbit(CAT, [(0.01, 0.01)], 0.023, periodic=1)
    res = periodic_shadow(CAT, p, CERT3, eps=0.05, g=G3)
    assert res.point == (Fraction(0), Fraction(0))
    assert res.periodic == 1
    assert res.minimal_period == 1
    assert res.eps_achieved == pytest.approx(0.01 * 2 ** 0.5, abs=1e-15)


def test_periodic_shadow_recovers_a_two_cycle():
    a = (0.2 + 8e-4, 0.4 - 5e-4)
    b = (0.8 - 3e-4, 0.6 + 6e-4)
    p = pseudo_orbit(CAT, [a, b], 0.01, periodic=2)
    res = periodic_shadow(CAT, p, CERT3, eps=0.05, g=G3)
    assert res.point == (Fraction(1, 5), Fraction(2, 5))
    assert res.minimal_period == 2
    assert res.eps_achieved == pytest.approx(9.433981132056541e-4, abs=1e-15)
    # the recovered cycle is exactly periodic
    step = exact_step(CAT, Direction.FORWARD)
    assert step.apply(step.apply(res.point)) == res.point


# --- splicing ----------------------------------------------------------------

def test_splice_builds_a_periodic_pseudo_orbit():
    s4 = make_subdivision(2, 4, Space.TORUS)
    g4 = build_graph(CAT, s4)
    step = exact_step(CAT, Direction.FORWARD)

    def segment(x0, length):
        seg, x = [], tuple(Fraction(v) for v in x0)
        for _ in range(length):
            seg.append(tuple(float(v) for v in x))
            x = step.apply(x)
        return seg

    seg1 = segment((Fraction(1, 7), Fraction(2, 7)), 5)
    seg2 = segment((Fraction(5, 9), Fraction(7, 9)), 5)
    p = specification_splice(CAT, g4, [seg1, seg2], gap=8)
    assert p.periodic == len(p.points)
    assert p.known_itinerary is not None
    assert len(p.known_itinerary) == len(p.points)
    assert list(p.points[:5]) == seg1
    flat = list(p.points)
    j = flat.index(seg2[0])
    assert flat[j : j + 5] == seg2
    # bridge waypoints sit at cube centers
    for k in range(5, j):
        cube = s4.box(p.known_itinerary[k])
        assert p.points[k] == cube.center
    itinerary(p, g4)  # declared chain is valid; membership holds
    res = periodic_shadow(CAT, p, certify_chained(CAT, s4, g4), eps=0.2, g=g4)
    assert res.minimal_period == p.periodic
    assert verify_shadow(CAT, res.point, p, 0.2).ok
    assert p.delta == max(step_defects(CAT, p)) * (1.0 + 1e-9) + 1e-15


def test_splice_checks_every_segment_step():
    g3 = build_graph(CAT, make_subdivision(2, 3, Space.TORUS))
    x = (0.1, 0.2)
    seg = [x, tuple(eval_point(CAT, Direction.FORWARD, x))]
    bent = [x, (0.4, 0.2)]
    with pytest.raises(ValueError, match="segment step defect 0.1"):
        specification_splice(CAT, g3, [seg, bent], gap=8)
    # One-point segments have no steps to check.
    p = specification_splice(CAT, g3, [[x], [(0.6, 0.7)]], gap=8)
    assert p.points[0] == x and (0.6, 0.7) in p.points


# --- serialization and determinism -------------------------------------------

def test_pseudo_orbit_json_round_trip():
    p = noisy_orbit()
    q = pseudo_orbit_from_json(json.loads(json.dumps(p.to_json())))
    assert q == p


def test_shadow_result_json_round_trip():
    p = noisy_orbit()
    res = shadow(CAT, p, CERT3, eps=0.01, g=G3)
    back = shadow_result_from_json(json.loads(json.dumps(res.to_json())))
    assert back.point == res.point  # exact rationals survive the trip
    assert back.eps_achieved == res.eps_achieved
    assert back.surviving_box.lo == res.surviving_box.lo


def test_shadow_is_deterministic():
    p = noisy_orbit()
    one = json.dumps(shadow(CAT, p, CERT3, eps=0.01, g=G3).to_json(), sort_keys=True)
    two = json.dumps(shadow(CAT, p, CERT3, eps=0.01, g=G3).to_json(), sort_keys=True)
    assert one == two


def test_orbit_csv_profiles_every_time():
    p = pseudo_orbit(
        CAT,
        generate_pseudo_orbit(CAT, (0.2, 0.3), 1e-4, 10, UniformNoise(3)).points,
        1e-4,
        lo=-10,
    )
    res = shadow(CAT, p, CERT3, eps=0.01, g=G3)
    lines = orbit_csv(CAT, p, res).splitlines()
    assert lines[0] == "k,y_1,y_2,x_1,x_2,err"
    assert len(lines) == 22
    assert lines[1].startswith("-10,")


# The digests below were captured from the implementation that walked
# exact orbits with separate helpers per caller; they pin the exact path.

def test_exact_shadow_artifacts_are_pinned():
    p = noisy_orbit()
    res = shadow(CAT, p, CERT3, eps=0.01, g=G3)
    csv_text = orbit_csv(CAT, p, res)
    body = json.dumps(res.to_json(), sort_keys=True)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "7d657438d73e38fd16314ec482fe2181d40076f4e547541b767ae87bf2933c06"
    )
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "1ec359395f8700975eb03a223e72b2a67c44ae8267e6014429d2a3f49611da85"
    )


def _two_cycle():
    p = pseudo_orbit(CAT, [(0.2 + 8e-4, 0.4 - 5e-4), (0.8 - 3e-4, 0.6 + 6e-4)], 0.01, periodic=2)
    return p, periodic_shadow(CAT, p, CERT3, eps=0.05, g=G3)


def _splice():
    step = exact_step(CAT, Direction.FORWARD)

    def segment(x0, length):
        seg, x = [], x0
        for _ in range(length):
            seg.append(tuple(float(v) for v in x))
            x = step.apply(x)
        return seg

    segments = [segment((Fraction(1, 7), Fraction(2, 7)), 4),
                segment((Fraction(5, 9), Fraction(7, 9)), 4)]
    p = specification_splice(CAT, G3, segments, gap=8)
    return p, periodic_shadow(CAT, p, CERT3, eps=0.2, g=G3)


def _noisy_shadow():
    p = noisy_orbit()
    return p, shadow(CAT, p, CERT3, eps=0.01, g=G3)


def _reference_csv(p, point):
    # csv.writer's rendering of an independent Fraction walk of point.
    orbit = fraction_reference.true_orbit(CAT, point, p.lo, p.hi)
    errors = fraction_reference.window_errors(p, orbit)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "y_1", "y_2", "x_1", "x_2", "err"])
    for k, y, x, err in zip(itertools.count(p.lo), p.points, orbit, errors):
        writer.writerow([k, *(repr(float(v)) for v in (*y, *x, err))])
    return buf.getvalue()


def _count_walks(monkeypatch):
    calls = []
    for name in ("_orbit", "_window_errors"):
        real = getattr(shadowing, name)
        monkeypatch.setattr(
            shadowing, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a)
        )
    return calls


@pytest.mark.parametrize(
    "request_", [_noisy_shadow, _two_cycle, _splice], ids=["shadow", "periodic", "splice"]
)
def test_orbit_csv_is_the_fraction_reference_profile(request_, monkeypatch):
    # The CSV is the profile the request measured, written without a walk;
    # it must equal, byte for byte, the rendering of the Fraction walk.
    p, res = request_()
    assert res.exact
    calls = _count_walks(monkeypatch)
    text = orbit_csv(CAT, p, res)
    assert calls == []
    assert text == _reference_csv(p, res.point)


def test_verify_shadow_walks_once_and_never_reads_the_measured_profile(monkeypatch):
    p, res = _noisy_shadow()
    orbit, errors = shadowing._profile(CAT, p, res.point)
    edited = (orbit, tuple(2.0 * e for e in errors))
    monkeypatch.setattr(shadowing, "_MEASURED", [((CAT, p, res.point), edited)])
    assert orbit_csv(CAT, p, res) != _reference_csv(p, res.point)  # reads the edit
    calls = _count_walks(monkeypatch)
    rep = verify_shadow(CAT, res.point, p, 0.01)
    assert calls == ["_orbit", "_window_errors"]
    assert list(rep.errors) == fraction_reference.window_errors(
        p, fraction_reference.true_orbit(CAT, res.point, p.lo, p.hi)
    )
    assert rep.errors == errors


def test_orbit_csv_walks_for_a_profile_no_request_measured(monkeypatch):
    # A result read back from JSON, or another window of the pseudo-orbit,
    # is not what the request measured: orbit_csv walks it afresh.
    p, res = _noisy_shadow()
    back = shadow_result_from_json(json.loads(json.dumps(res.to_json())))
    shorter = pseudo_orbit(CAT, p.points[1:-1], p.delta, lo=p.lo + 1)
    calls = _count_walks(monkeypatch)
    assert orbit_csv(CAT, p, back) == _reference_csv(p, res.point)
    assert orbit_csv(CAT, shorter, res) == _reference_csv(shorter, res.point)
    assert calls == ["_orbit", "_window_errors"] * 2


# --- the float path (trigonometric kinds) ------------------------------------

PERTURBED = builtin_map("perturbed [[2,1],[1,1]] eta=0.001 freq=1")


@pytest.fixture(scope="module")
def perturbed_m2():
    # m=2 leaves uncertain edges; certify through them so the run reaches
    # the float bisection and Newton.
    s = make_subdivision(2, 2, Space.TORUS)
    g = build_graph(PERTURBED, s)
    cert = certify_chained(PERTURBED, s, g, CoveringConfig(allow_uncertain=True))
    return s, g, cert


def _float_walk(f, x, steps):
    out = [np.asarray(x, dtype=float)]
    for _ in range(steps):
        out.append(eval_point(f, Direction.FORWARD, out[-1]))
    return out


def _csv_columns(text, n):
    rows = [line.split(",") for line in text.splitlines()[1:]]
    xs = [[float(v) for v in row[1 + n : 1 + 2 * n]] for row in rows]
    errs = [float(row[-1]) for row in rows]
    return xs, errs


def test_float_shadow_csv_matches_a_stepwise_walk(perturbed_m2):
    _, g, cert = perturbed_m2
    p = generate_pseudo_orbit(PERTURBED, (0.2, 0.3), 1e-4, 20, UniformNoise(3))
    res = shadow(PERTURBED, p, cert, 0.354, g=g, allow_uncertain=True)
    assert not res.exact
    rep = verify_shadow(PERTURBED, res.point, p, 0.354)
    assert rep.ok and rep.max_err == res.eps_achieved
    xs, errs = _csv_columns(orbit_csv(PERTURBED, p, res), 2)
    walk = _float_walk(PERTURBED, res.point, p.hi - p.lo)
    assert xs == [list(w) for w in walk]
    assert errs == list(rep.errors)


@pytest.mark.parametrize(
    "cycle", [[(0.0, 0.0)], [(0.2, 0.4), (0.8, 0.6)]], ids=["fixed", "two-cycle"]
)
def test_float_periodic_shadow_closes_the_cycle(perturbed_m2, cycle):
    s, g, cert = perturbed_m2
    # The two-cycle's defect exceeds the m=2 separation bound, so the cycle
    # declares its cubes and itinerary() checks membership instead.
    cubes = [ref.cube_of_point(s, y) for y in cycle]
    p = pseudo_orbit(PERTURBED, cycle, 0.01, periodic=len(cycle), known_itinerary=cubes)
    res = periodic_shadow(PERTURBED, p, cert, 0.354, g=g)
    assert not res.exact and res.minimal_period is None
    walk = _float_walk(PERTURBED, res.point, len(cycle))
    gap = (walk[-1] - walk[0] + 0.5) % 1.0 - 0.5
    assert float(np.linalg.norm(gap)) <= 1e-9
    rep = verify_shadow(PERTURBED, res.point, p, 0.354)
    assert rep.max_err == res.eps_achieved
    xs, errs = _csv_columns(orbit_csv(PERTURBED, p, res), 2)
    assert xs == [list(w) for w in walk[:-1]]
    assert errs == list(rep.errors)


@pytest.mark.parametrize("factor", [0.05], ids=["axis-radius"])
def test_bisection_failures_name_the_empty_tube(perturbed_m2, monkeypatch, factor):
    # The float localizer refuses a narrow tube before the first split.
    monkeypatch.setattr(shadowing, "_RADIUS_FACTOR", factor)
    _, g, cert = perturbed_m2
    p = generate_pseudo_orbit(PERTURBED, (0.2, 0.3), 1e-4, 20, UniformNoise(0))
    with pytest.raises(NoSurvivingCellError, match="tube is empty at the requested radius") as info:
        shadow(PERTURBED, p, cert, 1.0, g=g, allow_uncertain=True)
    assert info.value.deepest_surviving_depth == 0


def test_a_tube_wider_than_the_torus_gets_a_verdict(perturbed_m2, monkeypatch):
    # A radius of 1/2 or more once made each interval step build a torus
    # Box wider than one period and raise ValueError.
    _, g, cert = perturbed_m2
    p = generate_pseudo_orbit(PERTURBED, (0.2, 0.3), 1e-4, 5, UniformNoise(0))
    lo, hi, splits = _bisect_cell(PERTURBED, p, 0.6)
    assert splits > 0
    assert all(0.0 <= b - a < 1e-9 for a, b in zip(lo, hi))
    Box(tuple(lo), tuple(hi), Space.TORUS)
    monkeypatch.setattr(shadowing, "_RADIUS_FACTOR", 6000.0)  # r = 0.6 at delta 1e-4
    with pytest.raises(NoSurvivingCellError, match="best orbit achieves eps"):
        shadow(PERTURBED, p, cert, 0.3, g=g, allow_uncertain=True)


# --- the surviving box --------------------------------------------------------

def _noisy_true_cycle(period, delta=1e-4, seed=0):
    # A cycle of minimal period ``period`` from the exact periodic points,
    # each point moved by at most delta / 8 per axis, so every step's
    # defect stays below delta.
    x = next(q for q in periodic_points(CAT, period) if minimal_period(CAT, q, period) == period)
    rng = np.random.default_rng(seed)
    noisy = [(np.array([float(v) for v in q]) + rng.uniform(-delta / 8, delta / 8, 2)) % 1.0
             for q in shadowing.true_orbit(CAT, x, 0, period - 1)]
    return pseudo_orbit(CAT, noisy, delta, periodic=period)


def _box_case(name, perturbed_m2):
    if name.startswith("cat-"):
        seed, n_steps = (int(v[1:]) for v in name.split("-")[1:])
        p = noisy_orbit(n_steps, seed=seed)
        return CAT, p, shadow(CAT, p, CERT3, eps=0.01, g=G3)
    if name.startswith("period-"):
        p = _noisy_true_cycle(int(name.split("-")[1]))
        return CAT, p, periodic_shadow(CAT, p, CERT3, eps=0.05, g=G3)
    if name == "splice":
        return (CAT, *_splice())
    _, g, cert = perturbed_m2
    if name == "perturbed-shadow":
        p = generate_pseudo_orbit(PERTURBED, (0.2, 0.3), 1e-4, 20, UniformNoise(3))
        return PERTURBED, p, shadow(PERTURBED, p, cert, 0.354, g=g, allow_uncertain=True)
    p = pseudo_orbit(PERTURBED, [(0.0, 0.0)], 0.01, periodic=1, known_itinerary=[0])
    return PERTURBED, p, periodic_shadow(PERTURBED, p, cert, 0.354, g=g)


@pytest.mark.parametrize(
    "name",
    [f"cat-s{seed}-n{n}" for seed in range(7) for n in (30, 100)]
    + ["period-1", "period-2", "period-5", "splice", "perturbed-shadow", "perturbed-periodic"],
)
def test_surviving_box_is_the_chain_time0_hull(perturbed_m2, name):
    # Every result reports the verified step chain's time-0 rectangle as
    # its axis hull, widened outward, and that box holds the result's point.
    f, p, res = _box_case(name, perturbed_m2)
    rect = step_chain(f, p, _errors(f, p)).rectangles[-p.lo]
    centre, half = np.array(rect.center), rect.ambient_bounding_halfwidths()
    lo, hi = widen(centre - half, centre + half)
    assert [v.hex() for v in res.surviving_box.lo] == [v.hex() for v in lo.tolist()]
    assert [v.hex() for v in res.surviving_box.hi] == [v.hex() for v in hi.tolist()]
    assert res.surviving_box.space is p.space
    assert res.surviving_box.contains_point(res.point_floats)


@pytest.mark.parametrize("kind", ["shadow", "periodic"])
def test_a_request_lifts_and_chains_once(monkeypatch, kind):
    # One _step_lift feeds the request's one step chain, which is called
    # through the module global (so a wrapper of shadowing.step_chain sees it).
    if kind == "shadow":
        p, solve = noisy_orbit(), shadow
    else:
        p, solve = _noisy_true_cycle(2), periodic_shadow
    calls = []
    for name in ("_step_lift", "step_chain"):
        real = getattr(shadowing, name)
        monkeypatch.setattr(shadowing, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    solve(CAT, p, CERT3, eps=0.05, g=G3)
    assert calls == ["_step_lift", "step_chain"]
