"""The batched interval kernels against the scalar reference and mpmath.

Each array kernel must give, row for row, the bits of the one-box-at-a-time
reference in ``scalar_reference``; the enclosure must also contain the map
evaluated at 60 digits.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_reference as ref
from cubeshadow import transition
from cubeshadow._intervals import sin_range
from cubeshadow.dynamics import Direction, builtin_map, eval_box, map_parts
from cubeshadow.geometry import Box, Space, make_subdivision

MAPS = [
    ("standard K=0.3", Space.TORUS),
    ("standard K=7.0", Space.TORUS),
    ("perturbed [[2,1],[1,1]] eta=0.001 freq=1", Space.TORUS),
    ("perturbed [[2,1],[1,1]] eta=0.05 freq=5", Space.TORUS),
    ("perturbed [[2,1,0],[1,1,0],[0,0,1]] eta=0.01 freq=2", Space.TORUS),
    ("toral [[2,1],[1,1]]", Space.TORUS),
    ("translation [0.3,0.1]", Space.TORUS),
    ("affine [[0.5,0.1],[0.05,0.45]] offset=[0.2,0.3]", Space.CUBE),
    ("affine [[0.3,0.1,0.2],[0.1,0.2,0.3],[0.1,0.3,0.1]]", Space.CUBE),
]
NONLINEAR = [m for m in MAPS if m[0].startswith(("standard", "perturbed"))]


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _directions(f):
    return list(Direction) if f.invertible else [Direction.FORWARD]


# Grid points, seam points and arbitrary floats; widths from a hair to more
# than one period, so enclosures straddle the glued faces and sine
# arguments span 2*pi or more.
_coord = st.one_of(
    st.sampled_from([0.0, 0.125, 0.5, 0.875, 1.0]),
    st.floats(0.0, 1.0),
)
_width = st.one_of(
    st.sampled_from([0.0, 2.0 ** -10, 0.125]),
    st.floats(0.0, 1e-3),
    st.floats(0.0, 1.5),
)


@st.composite
def _lifts(draw, n):
    """A (k, n) batch of lifted boxes: corners anywhere in [-1, 2]."""
    k = draw(st.integers(1, 6))
    lo = np.array([[draw(_coord) * 3.0 - 1.0 for _ in range(n)] for _ in range(k)])
    hi = lo + np.array([[draw(_width) for _ in range(n)] for _ in range(k)])
    return lo, hi


@st.composite
def _cells(draw, n):
    """A (k, n) batch of cells inside [0, 1]^n and a target box per cell."""
    k = draw(st.integers(1, 6))
    rows = []
    for _ in range(2 * k):
        lo = [draw(_coord) for _ in range(n)]
        rows.append((lo, [min(a + draw(_width), 1.0) for a in lo]))
    cells, targets = rows[:k], rows[k:]
    return tuple(np.array([r[x] for r in part]) for part in (cells, targets) for x in (0, 1))


@pytest.mark.parametrize("descriptor, space", MAPS, ids=[m[0] for m in MAPS])
@given(data=st.data())
def test_enclosure_rows_match_scalar_reference(descriptor, space, data):
    f = builtin_map(descriptor, space)
    lo, hi = data.draw(_lifts(f.n))
    for direction in _directions(f):
        out_lo, out_hi = eval_box(f, direction, lo, hi)
        for r in range(len(lo)):
            want_lo, want_hi = ref.enclose(f, direction, lo[r], hi[r])
            assert _bits(out_lo[r]) == _bits(want_lo)
            assert _bits(out_hi[r]) == _bits(want_hi)
            one_lo, one_hi = eval_box(f, direction, lo[r], hi[r])
            assert _bits(one_lo) == _bits(want_lo) and _bits(one_hi) == _bits(want_hi)


@pytest.mark.parametrize("descriptor, space", MAPS, ids=[m[0] for m in MAPS])
@given(data=st.data())
def test_image_gap_and_center_bound_match_scalar_reference(descriptor, space, data):
    f = builtin_map(descriptor, space)
    lo, hi, t_lo, t_hi = data.draw(_cells(f.n))
    gaps = transition._image_gaps(f, lo, hi, t_lo, t_hi)
    centers = transition._center_bounds(f, lo, hi, t_lo, t_hi)
    for r in range(len(lo)):
        cell = Box(tuple(lo[r]), tuple(hi[r]), space)
        target = Box(tuple(t_lo[r]), tuple(t_hi[r]), space)
        assert _bits(gaps[r]) == _bits(ref.image_gap(f, cell, target))
        assert _bits(centers[r]) == _bits(ref.center_bound(f, cell, target))


@given(
    n=st.integers(1, 3),
    m=st.integers(0, 3),
    depth=st.integers(0, 12),
    data=st.data(),
)
def test_child_split_matches_scalar_reference(n, m, depth, data):
    s = make_subdivision(n, m, Space.TORUS)
    i = data.draw(st.integers(0, s.count - 1))
    j = data.draw(st.integers(0, s.count - 1))
    k = [data.draw(st.integers(0, (1 << depth) - 1)) for _ in range(n)]
    src = s.box(i)
    size = s.cube_width / (1 << depth)
    lo = [a + kk * size for a, kk in zip(src.lo, k)]
    cell = Box(tuple(lo), tuple(a + size for a in lo), Space.TORUS)
    kids, c_lo, c_hi, t_lo, t_hi = transition._split_cells(
        transition._cube_bounds(s), [i], [j], [depth], np.array([k]), s.cube_width
    )
    for r, child in enumerate(ref.split_box(cell)):
        assert _bits(c_lo[r]) == _bits(child.lo) and _bits(c_hi[r]) == _bits(child.hi)
        assert list(kids[r]) == [2 * kk + ((r >> a) & 1) for a, kk in enumerate(k)]
        assert _bits(t_lo[r]) == _bits(s.box(j).lo) and _bits(t_hi[r]) == _bits(s.box(j).hi)


def _exact_image(f, direction: Direction, x) -> list:
    """f(x) at 60 digits, with the map's float coefficients taken exactly."""
    parts = map_parts(f, direction)
    x = [mpmath.mpf(float(v)) for v in x]
    y = [
        mpmath.fsum(mpmath.mpf(a) * v for a, v in zip(row, x)) + mpmath.mpf(b)
        for row, b in zip(parts.a.tolist(), parts.b.tolist())
    ]
    r = parts.residual
    if r is not None:
        u = y if direction is Direction.INVERSE else x
        y = [
            v + mpmath.mpf(c) * mpmath.sin(mpmath.mpf(r.angular) * u[src])
            for v, c, src in zip(y, r.coef, r.src)
        ]
    return y


def _random_lifts(rng, n: int, k: int = 150) -> tuple[np.ndarray, np.ndarray]:
    """k lifted boxes with corners in [-1, 2] and widths from zero to more
    than one period.  Half the coordinates sit a power of two away from a
    multiple of 1/2, where the sine is small and image coordinates can be
    small too, so the rounding of the sine argument matters most."""
    near = rng.integers(-2, 5, size=(k, n)) / 2.0 + rng.choice([-1.0, 1.0], size=(k, n)) * np.ldexp(
        1.0, -rng.integers(2, 20, size=(k, n))
    )
    lo = np.where(rng.random((k, n)) < 0.5, near, rng.uniform(-1.0, 2.0, (k, n)))
    scale = rng.choice([0.0, 2.0 ** -10, 1e-3, 1.5], size=(k, 1))
    return lo, lo + rng.random((k, n)) * scale


# The sine argument omega * x is rounded to nearest, so the enclosure
# nudges it one ulp outward: where the sine is small, half an ulp of the
# argument outweighs the nudges of the sine's value and of the image.  For
# standard K=0.3 the box corner (-0.9990234375, -0.00390625), with
# y' = -0.0036132830883536039..., escaped the unnudged upper bound
# -0.0036132830883536119.  The perturbed kinds add their sine term
# unnudged (ulps=0) and rely on the final widening, which this checks too.
@pytest.mark.parametrize("descriptor, space", NONLINEAR, ids=[m[0] for m in NONLINEAR])
def test_enclosure_contains_the_60_digit_image(descriptor, space):
    f = builtin_map(descriptor, space)
    rng = np.random.default_rng(1)
    lo, hi = _random_lifts(rng, f.n)
    with mpmath.workdps(60):
        for direction in _directions(f):
            out_lo, out_hi = eval_box(f, direction, lo, hi)
            for r in range(len(lo)):
                corners = [
                    [hi[r][a] if (mask >> a) & 1 else lo[r][a] for a in range(f.n)]
                    for mask in range(1 << f.n)
                ]
                inside = lo[r] + rng.random((4, f.n)) * (hi[r] - lo[r])
                for x in corners + inside.tolist():
                    for v, a, b in zip(_exact_image(f, direction, x), out_lo[r], out_hi[r]):
                        assert mpmath.mpf(float(a)) <= v <= mpmath.mpf(float(b)), (
                            direction, x, float(v), a, b,
                        )


@given(data=st.data())
def test_sin_range_contains_the_60_digit_sine(data):
    lo = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
    hi = [a + data.draw(_width) * 5.0 for a in lo]
    out_lo, out_hi = sin_range(np.array(lo), np.array(hi))
    with mpmath.workdps(60):
        for a, b, s_lo, s_hi in zip(lo, hi, out_lo, out_hi):
            t = [mpmath.mpf(a) + (mpmath.mpf(b) - mpmath.mpf(a)) * q / 16 for q in range(17)]
            # Interior extrema: every multiple of pi/2 inside [a, b].
            quarter = mpmath.pi / 2
            k = mpmath.ceil(mpmath.mpf(a) / quarter)
            while k * quarter <= b and len(t) < 64:
                t.append(k * quarter)
                k += 1
            for v in t:
                assert mpmath.mpf(float(s_lo)) <= mpmath.sin(v) <= mpmath.mpf(float(s_hi))


def _record_rounds(monkeypatch, s) -> list[set]:
    """The (source, target) cube pairs bounded in each gap-search round."""
    rounds: list[set] = []
    real = transition._image_gaps

    def recorded(f, lo, hi, t_lo, t_hi):
        # Cells and cubes are dyadic, so these products are exact.
        keys = np.hstack([np.floor(lo * s.side), t_lo * s.side])
        rounds.append({tuple(row) for row in keys.tolist()})
        return real(f, lo, hi, t_lo, t_hi)

    monkeypatch.setattr(transition, "_image_gaps", recorded)
    return rounds


def _searches_at_once(s, held: int) -> int:
    return max(1, held // (((1 << s.n) - 1) * transition._MAX_CELLS + 1))


@pytest.mark.parametrize(
    "descriptor, n, m, space",
    [
        ("perturbed [[1]] eta=0.02 freq=3", 1, 4, Space.TORUS),
        ("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 2, 3, Space.TORUS),
        ("perturbed [[2,1,0],[1,1,0],[0,0,1]] eta=0.01 freq=2", 3, 2, Space.TORUS),
        ("affine [[0.3,0.1,0.2],[0.1,0.2,0.3],[0.1,0.3,0.1]]", 3, 2, Space.CUBE),
    ],
    ids=["1d", "2d", "3d", "3d-cube"],
)
def test_lockstep_gap_search_matches_one_pair_at_a_time(monkeypatch, descriptor, n, m, space):
    # Packed cell addresses for n != 2, and searches starting as others
    # finish: with the full cell budget, with room for three searches, and
    # with a budget below one search's worst case (as from n = 9 on), where
    # one search still runs, every pair's bound must be the one its own
    # search finds.
    f = builtin_map(descriptor, space)
    s = make_subdivision(n, m, space)
    codes = np.random.default_rng(0).choice(s.count * s.count, 40, replace=False)
    pairs = [divmod(int(c), s.count) for c in codes]
    tol = s.cube_width / 16
    want = [ref.pair_distance_lb(f, s.box(i), s.box(j), tol) for i, j in pairs]
    assert any(g > 0.0 for g in want)
    rounds = _record_rounds(monkeypatch, s)
    worst = ((1 << n) - 1) * transition._MAX_CELLS + 1
    for held in (transition._HELD_CELLS, 3 * worst, 1):
        monkeypatch.setattr(transition, "_HELD_CELLS", held)
        rounds.clear()
        got = transition._distance_lbs(f, s, pairs, tol, transition._cube_bounds(s))
        assert _bits(got) == _bits(want), held
        assert max(map(len, rounds)) == min(_searches_at_once(s, held), 40)
        assert len(set().union(*rounds)) == 40


@pytest.mark.parametrize(
    "descriptor", ["standard K=0.3", "perturbed [[2,1],[1,1]] eta=0.001 freq=1"]
)
def test_cancelled_sharpen_matches_the_skip_rule(monkeypatch, descriptor):
    # One search over every coarse gap, cut where the skip rule stops: the
    # same minimum and stored gaps as the pair-at-a-time rule, and no more
    # searches started past the pairs it visits than can run beside the
    # one it waits for (none when one search runs at a time).
    f = builtin_map(descriptor)
    s = make_subdivision(2, 3, Space.TORUS)
    cubes = transition._cube_bounds(s)
    gaps = {}  # the coarse gaps the graph's gap search hands to the sharpen
    with monkeypatch.context() as patch:
        patch.setattr(transition, "_sharpen_min_gap", lambda f, s, g, *_: gaps.update(g))
        transition.build_graph(f, s).min_empty_gap
    assert gaps
    visited = []
    real = ref.pair_distance_lb
    monkeypatch.setattr(ref, "pair_distance_lb", lambda *a: visited.append(a) or real(*a))
    want = dict(gaps)
    want_min = ref.sharpen_min_gap(f, s, want, math.inf, cubes)
    rounds = _record_rounds(monkeypatch, s)
    for held in (3 * (((1 << s.n) - 1) * transition._MAX_CELLS + 1), 1):
        monkeypatch.setattr(transition, "_HELD_CELLS", held)
        searches = _searches_at_once(s, held)
        rounds.clear()
        got = dict(gaps)
        got_min = transition._sharpen_min_gap(f, s, got, math.inf, cubes)
        assert _bits(got_min) == _bits(want_min)
        assert list(got) == list(want) and _bits(list(got.values())) == _bits(list(want.values()))
        assert max(map(len, rounds)) <= searches
        assert len(visited) <= len(set().union(*rounds)) <= len(visited) + searches - 1


@pytest.mark.parametrize(
    "descriptor, m",
    [
        pytest.param("standard K=0.3", 3, id="standard K=0.3"),
        pytest.param("translation [0.3,0.1]", 3, id="translation [0.3,0.1]"),
        pytest.param("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 2, id="perturbed m=2"),
    ],
)
def test_build_graph_matches_the_sequential_reference(monkeypatch, descriptor, m):
    # Refinement, the refined-empty gaps and the sharpened minimum run one
    # pair after another in the reference, with the skip rule; the lockstep
    # build must agree.  Its gaps are deferred, so they are read before the
    # reference takes over the searches.
    f = builtin_map(descriptor)
    s = make_subdivision(2, m, Space.TORUS)
    lockstep = transition.build_graph(f, s)
    want = json.dumps(lockstep.to_json())
    monkeypatch.setattr(transition, "_refine_uncertain", ref.refine_uncertain)
    monkeypatch.setattr(transition, "_distance_lbs", ref.refined_gaps)
    monkeypatch.setattr(transition, "_sharpen_min_gap", ref.sharpen_min_gap)
    sequential = transition.build_graph(f, s)
    assert lockstep == sequential
    assert want == json.dumps(lockstep.to_json()) == json.dumps(sequential.to_json())
    assert lockstep.empty_gaps and (lockstep.uncertain or descriptor.startswith("translation"))
