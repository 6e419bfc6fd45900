import json
import math

import numpy as np
import pytest

from cubeshadow.covering import (
    ChainedCertificate,
    CoveringCertificate,
    CoveringConfig,
    FailureReport,
    Inconclusive,
    Rectangle,
    certificate_from_json,
    certificate_margin,
    certify_chained,
    check_covering,
    compose_chain,
    expansion_frame,
    rectangle_from_json,
    verify_certificate,
)
from cubeshadow.dynamics import builtin_map, eval_point, Direction
from cubeshadow.errors import MismatchedChainError, NotEndomorphismError
from cubeshadow.geometry import Box, Space, make_subdivision
from cubeshadow.transition import build_graph

CAT = builtin_map("toral [[2,1],[1,1]]")
MODEL = builtin_map("affine [[2,0],[0,0.5]] offset=[-0.5,0.2]", space=Space.CUBE)


def cube_rect(lo, hi):
    return Rectangle(Box(lo, hi, Space.CUBE))


# --- the linear model example ----------------------------------------------

def test_linear_model_margins():
    src = cube_rect((0.4, 0.4), (0.6, 0.6))
    dst = cube_rect((0.35, 0.3), (0.65, 0.6))
    cert = check_covering(MODEL, src, dst)
    assert isinstance(cert, CoveringCertificate)
    assert cert.h_range == (0.4, 0.6)
    assert cert.exit_margin == pytest.approx(0.05, abs=1e-12)
    assert cert.confinement_margin == pytest.approx(0.1, abs=1e-12)
    assert cert.orientation == 1
    assert certificate_margin(cert) == pytest.approx(0.05, abs=1e-12)


def test_linear_model_verify_and_json_round_trip():
    src = cube_rect((0.4, 0.4), (0.6, 0.6))
    dst = cube_rect((0.35, 0.3), (0.65, 0.6))
    cert = check_covering(MODEL, src, dst)
    assert verify_certificate(MODEL, cert)
    doc = json.loads(json.dumps(cert.to_json()))
    assert certificate_from_json(doc) == cert


def test_prescribed_strip_matches_search():
    src = cube_rect((0.4, 0.4), (0.6, 0.6))
    dst = cube_rect((0.35, 0.3), (0.65, 0.6))
    searched = check_covering(MODEL, src, dst)
    pinned = check_covering(MODEL, src, dst, strip=(0.4, 0.6))
    assert pinned == searched
    with pytest.raises(ValueError):
        check_covering(MODEL, src, dst, strip=(0.3, 0.6))


def test_identity_and_translation_inconclusive():
    r = Rectangle(Box((0.1, 0.1), (0.2, 0.25), Space.TORUS))
    res = check_covering(builtin_map("identity"), r, r)
    assert isinstance(res, Inconclusive)
    assert not res
    res2 = check_covering(builtin_map("translation [0.25,0.5]"), r, r)
    assert isinstance(res2, Inconclusive)


def test_local_endomorphism_gate():
    # The model map pushes [0.7, 0.9] to [0.9, 1.3] on the first axis.
    src = cube_rect((0.7, 0.4), (0.9, 0.6))
    dst = cube_rect((0.35, 0.3), (0.65, 0.6))
    with pytest.raises(NotEndomorphismError):
        check_covering(MODEL, src, dst)


# --- rectangle geometry -----------------------------------------------------

def test_rectangle_validation():
    box = Box((0.1, 0.1), (0.3, 0.3), Space.CUBE)
    with pytest.raises(ValueError):
        Rectangle(Box((0.1, 0.2), (0.3, 0.2), Space.CUBE))
    with pytest.raises(ValueError):
        Rectangle(box, frame=((1.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize(
    "key, value",
    [("exit_axis", 1), ("exit_axis", False), ("exit_axis", 0.0),
     ("orientation", -1), ("orientation", True), ("orientation", 1.0)],
)
def test_rectangle_json_stores_exit_axis_0_and_orientation_1(key, value):
    r = cube_rect((0.1, 0.1), (0.3, 0.3))
    doc = r.to_json()
    assert (doc["exit_axis"], doc["orientation"]) == (0, 1)
    assert rectangle_from_json(doc) == r
    doc[key] = value
    with pytest.raises(ValueError, match=f"rectangle {key} must be the integer"):
        rectangle_from_json(doc)


def test_negative_expansion_certifies_crossed_coverings():
    # The expanding eigenvalue of [[-2,1],[1,-1]] is negative, so the image
    # of the low end face lands above the target: a crossed covering.
    f = builtin_map("toral [[-2,1],[1,-1]]")
    s = make_subdivision(2, 3, Space.TORUS)
    chained = certify_chained(f, s, build_graph(f, s))
    assert isinstance(chained, ChainedCertificate)
    assert {c.orientation for _, c in chained.classes} == {-1}
    assert all(verify_certificate(f, c) for _, c in chained.classes)


def test_rotated_rectangle_membership():
    s = math.sqrt(0.5)
    frame = ((s, s), (-s, s))
    r = Rectangle(Box((0.4, 0.4), (0.6, 0.6), Space.CUBE), frame)
    assert r.contains_point((0.5, 0.5))
    # The box corner is outside once the set is rotated 45 degrees.
    assert not r.contains_point((0.6, 0.6))
    rng = np.random.default_rng(0)
    for p in r.sample(rng, 200):
        assert r.contains_point(p, tol=1e-12)
    # Rotated square of half width 0.1 has ambient half extent 0.1*sqrt(2).
    assert np.allclose(r.ambient_bounding_halfwidths(), 0.1 * math.sqrt(2))


# --- cat map certification --------------------------------------------------

def test_expansion_frame_of_cat():
    rows, vals = expansion_frame(CAT)
    assert vals[0] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    assert vals[1] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    # Rows are orthonormal eigenvectors; the expanding one comes first.
    a = np.array([[2, 1], [1, 1]], dtype=float)
    for row, lam in zip(rows, vals):
        assert np.allclose(a @ row, lam * row, atol=1e-12)


def test_cat_single_anchored_edge():
    s = make_subdivision(2, 3, Space.TORUS)
    g = build_graph(CAT, s)
    pair, w = next(
        (p, w) for p, w in sorted(g.witnesses.items()) if w.interior
    )
    rows, _ = expansion_frame(CAT)
    fit = float(np.max(np.sum(np.abs(rows), axis=0)))
    rho = 0.9 * w.clearance / fit
    frame = tuple(tuple(float(v) for v in r) for r in rows)

    def rect(c):
        return Rectangle(
            Box(tuple(x - rho for x in c), tuple(x + rho for x in c), Space.TORUS), frame
        )

    cert = check_covering(CAT, rect(w.point), rect(w.image))
    assert isinstance(cert, CoveringCertificate)
    assert cert.exit_margin > 0 and cert.confinement_margin > 0


def test_cat_chained_m3():
    s = make_subdivision(2, 3, Space.TORUS)
    g = build_graph(CAT, s)
    res = certify_chained(CAT, s, g)
    assert isinstance(res, ChainedCertificate)
    assert len(res.certificates) == 256          # 4 interior edges per cube
    assert len(res.excluded_boundary) == 512     # 8 corner-touch edges per cube
    assert set(res.certificates) | set(res.excluded_boundary) == set(g.witnesses)
    assert 0.012 < res.margin() < 0.016
    for (i, j) in res.certificates:
        assert g.witnesses[(i, j)].interior
    for (i, j) in res.excluded_boundary:
        assert not g.witnesses[(i, j)].interior


def test_cat_chained_certificates_reverify():
    s = make_subdivision(2, 3, Space.TORUS)
    g = build_graph(CAT, s)
    res = certify_chained(CAT, s, g)
    for _pair, cert in sorted(res.certificates.items())[::16]:
        assert verify_certificate(CAT, cert)
    json.dumps(res.to_json())


def _inside(rect, cube):
    c = np.array(rect.center)
    half = rect.ambient_bounding_halfwidths()
    return bool(np.all(c - half >= cube.lo_arr) and np.all(c + half <= cube.hi_arr))


def test_cat_class_translates_verify_in_their_cubes():
    s = make_subdivision(2, 3, Space.TORUS)
    g = build_graph(CAT, s)
    res = certify_chained(CAT, s, g)
    # One strip search per class: the four interior edges of row 0.
    assert [rep for rep, _ in res.classes] == [(0, 0), (0, 8), (0, 9), (0, 17)]
    for (i, j), cert in res.certificates.items():
        rep, stored = res.classes[res.edge_class[(i, j)]]
        assert verify_certificate(CAT, cert)
        assert _inside(cert.source, s.box(i)) and _inside(cert.target, s.box(j))
        assert (cert.exit_margin, cert.confinement_margin) == (
            stored.exit_margin, stored.confinement_margin)
        assert (cert == stored) == ((i, j) == rep)


def test_nonequivariant_kinds_have_one_class_per_edge():
    f = builtin_map("perturbed [[2,1],[1,1]] eta=0.001 freq=1")
    s = make_subdivision(2, 2, Space.TORUS)
    g = build_graph(f, s)
    res = certify_chained(f, s, g, CoveringConfig(allow_uncertain=True))
    assert isinstance(res, ChainedCertificate)
    assert [rep for rep, _ in res.classes] == list(res.certificates)
    for pair, cert in res.certificates.items():
        assert cert is res.classes[res.edge_class[pair]][1]


@pytest.mark.parametrize("desc", ["identity", "translation [0.25,0.5]"])
def test_isometries_fail_chaining(desc):
    f = builtin_map(desc)
    s = make_subdivision(2, 2, Space.TORUS)
    g = build_graph(f, s)
    res = certify_chained(f, s, g)
    assert isinstance(res, FailureReport)
    assert res.certified == 0
    assert res.total_edges == 144
    assert res.failures


# --- certificate soundness (sampled) ---------------------------------------

def wrapped_chart_coords(cert, ambient_points):
    """Target-chart coordinates of ambient points, nearest-lift on the torus."""
    c = np.array(cert.target.center)
    d = np.asarray(ambient_points) - c
    if cert.target.box.space is Space.TORUS:
        d = (d + 0.5) % 1.0 - 0.5
    return d @ cert.target.frame_arr.T


@pytest.mark.parametrize("case", ["model", "cat"])
def test_certificate_soundness_sampled(case):
    if case == "model":
        f = MODEL
        cert = check_covering(
            f,
            cube_rect((0.4, 0.4), (0.6, 0.6)),
            cube_rect((0.35, 0.3), (0.65, 0.6)),
        )
    else:
        f = CAT
        s = make_subdivision(2, 2, Space.TORUS)
        g = build_graph(f, s)
        chained = certify_chained(f, s, g)
        cert = chained.certificates[sorted(chained.certificates)[0]]
    rng = np.random.default_rng(11)
    half = cert.target.half_widths
    # Points on the strip's two end faces (chart axis 0 at each end of the
    # strip) exit strictly beyond the target's exit faces, on opposite sides.
    signs = []
    for end in cert.h_range:
        coords = rng.uniform(cert.source.box.lo_arr, cert.source.box.hi_arr, size=(10_000, 2))
        coords[:, 0] = end
        pts = cert.source.to_ambient(coords)
        imgs = np.array([eval_point(f, Direction.FORWARD, p) for p in pts])
        v = wrapped_chart_coords(cert, imgs)
        beyond = np.abs(v[:, 0]) > half[0]
        assert np.all(beyond)
        side_sign = np.sign(v[:, 0])
        assert np.all(side_sign == side_sign[0])
        signs.append(side_sign[0])
    assert signs[0] * signs[1] == -1
    # Strip points stay strictly inside the non-exit ranges.
    lo = cert.source.box.lo_arr.copy()
    hi = cert.source.box.hi_arr.copy()
    lo[0], hi[0] = cert.h_range
    coords = rng.uniform(lo, hi, size=(10_000, 2))
    pts = cert.source.to_ambient(coords)
    imgs = np.array([eval_point(f, Direction.FORWARD, p) for p in pts])
    v = wrapped_chart_coords(cert, imgs)
    assert np.all(np.abs(v[:, 1]) < half[1])


def test_robustness_reverify_under_perturbation():
    s = make_subdivision(2, 3, Space.TORUS)
    g = build_graph(CAT, s)
    chained = certify_chained(CAT, s, g)
    mu = chained.margin()
    pert = builtin_map(f"perturbed [[2,1],[1,1]] eta={mu / 2} freq=1")
    for _pair, cert in sorted(chained.certificates.items()):
        again = check_covering(pert, cert.source, cert.target, strip=cert.h_range)
        assert isinstance(again, CoveringCertificate)


# --- composition ------------------------------------------------------------

def model_chain():
    r1 = cube_rect((0.4, 0.35), (0.6, 0.45))
    r2 = cube_rect((0.35, 0.33), (0.65, 0.47))
    r3 = cube_rect((0.3, 0.34), (0.7, 0.46))
    c1 = check_covering(MODEL, r1, r2)
    c2 = check_covering(MODEL, r2, r3)
    return r1, r2, r3, c1, c2


def test_compose_chain_valid_and_endpoints():
    r1, _r2, r3, c1, c2 = model_chain()
    assert isinstance(c1, CoveringCertificate)
    assert isinstance(c2, CoveringCertificate)
    v = compose_chain([c1, c2])
    assert v.length == 2
    assert v.source == r1
    assert v.target == r3
    single = compose_chain([c1])
    assert single.length == 1


def test_compose_chain_mismatch():
    _r1, _r2, _r3, c1, c2 = model_chain()
    with pytest.raises(MismatchedChainError):
        compose_chain([c2, c1])
    with pytest.raises(ValueError):
        compose_chain([])


def test_composed_chain_has_through_orbit():
    r1, r2, r3, c1, c2 = model_chain()
    compose_chain([c1, c2])
    xs = np.linspace(r1.box.lo[0], r1.box.hi[0], 200)
    ys = np.linspace(r1.box.lo[1], r1.box.hi[1], 200)
    found = False
    for x in xs:
        for y in ys:
            p1 = eval_point(MODEL, Direction.FORWARD, (x, y))
            if not r2.contains_point(p1):
                continue
            p2 = eval_point(MODEL, Direction.FORWARD, p1)
            if r3.contains_point(p2):
                found = True
                break
        if found:
            break
    assert found


def test_self_covering_has_near_fixed_point():
    r = cube_rect((0.4, 0.3), (0.6, 0.5))
    cert = check_covering(MODEL, r, r)
    assert isinstance(cert, CoveringCertificate)
    xs = np.linspace(0.4, 0.6, 100)
    ys = np.linspace(0.3, 0.5, 100)
    pitch = 0.2 / 99
    best = math.inf
    for x in xs:
        for y in ys:
            img = eval_point(MODEL, Direction.FORWARD, (x, y))
            best = min(best, math.hypot(img[0] - x, img[1] - y))
    # Lipschitz constant of the model map is 2.
    assert best <= pitch * (1 + 2)
