"""The batched interval kernels against the scalar reference and mpmath.

Each array kernel must give, row for row, the bits of the one-box-at-a-time
reference in ``scalar_reference``, from C-order, F-order and strided inputs
alike; the enclosure must also contain the map evaluated at 60 digits.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_reference as ref
from cubeshadow import transition
from cubeshadow._intervals import _SMALL_NUDGE, nudge_down, nudge_up, sin_range
from cubeshadow.dynamics import (
    Direction,
    builtin_map,
    eval_box,
    eval_point,
    eval_points,
    lift_points,
    map_parts,
    residual_range,
)
from cubeshadow.errors import InvalidMapError
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


def _tiles(rows: int) -> int:
    """Copies of a batch of ``rows`` rows that give every nudged array,
    which holds at least one value per row, the integer ulp step."""
    return -(-_SMALL_NUDGE // rows)


def _nextafter_steps(x, ulps: int, toward: float):
    out = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(ulps):
            out = np.nextafter(out, toward)
    return np.asarray(out)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
            1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e300,
            math.inf, -math.inf, math.nan]


@given(
    patterns=st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), min_size=1, max_size=12),
    size=st.sampled_from([1, 7, _SMALL_NUDGE - 1, _SMALL_NUDGE, 3 * _SMALL_NUDGE]),
    finite=st.booleans(),
)
def test_ulp_steps_match_nextafter_bit_for_bit(patterns, size, finite):
    # Any bit pattern, as a float; with ``finite`` the values outside
    # +-1e300 (inf and NaN included) are replaced, so that big arrays take
    # the integer step.  Every shape and memory order must come back
    # stepped, with the bits (and zero signs) of repeated np.nextafter.
    values = np.array(patterns, dtype=np.int64).view(np.float64)
    if finite:
        values = np.where(np.abs(values) <= 1e300, values, 0.5)
    flat = np.resize(values, size)
    shapes = [flat, flat[None, :].T, np.asfortranarray(np.resize(flat, (size, 3))),
              np.resize(flat, (2, size, 3)).transpose(1, 0, 2), flat[:1].reshape(())]
    for x in shapes:
        for ulps in (0, 1, 2, 4):
            for nudge, toward in ((nudge_down, -math.inf), (nudge_up, math.inf)):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = np.asarray(nudge(x, ulps))
                want = _nextafter_steps(x, ulps, toward)
                assert got.shape == want.shape == x.shape
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("size", [1, _SMALL_NUDGE - 1, _SMALL_NUDGE, 4 * _SMALL_NUDGE])
@pytest.mark.parametrize("value", _SPECIAL, ids=repr)
def test_ulp_steps_of_special_values(size, value):
    # Zeros of both signs (a step that lands on zero takes nextafter's
    # sign: +0 going down, -0 going up), subnormals, the largest finite
    # values, infinities and NaN, alone and next to ordinary values.
    for x in (np.full(size, value), np.resize([value, 0.25, -3.0], size)):
        for ulps in (0, 1, 2, 4):
            for nudge, toward in ((nudge_down, -math.inf), (nudge_up, math.inf)):
                for start in (x, _nextafter_steps(x, 1, -toward)):
                    want = _nextafter_steps(start, ulps, toward)
                    with np.errstate(over="ignore", invalid="ignore"):
                        got = np.asarray(nudge(start, ulps))
                    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


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
        # Tiled past the nudge crossover, every row still has the reference's bits.
        reps = _tiles(len(lo))
        big_lo, big_hi = eval_box(f, direction, np.tile(lo, (reps, 1)), np.tile(hi, (reps, 1)))
        assert _bits(big_lo) == _bits(np.tile(out_lo, (reps, 1)))
        assert _bits(big_hi) == _bits(np.tile(out_hi, (reps, 1)))


@pytest.mark.parametrize("descriptor, space", MAPS, ids=[m[0] for m in MAPS])
@given(data=st.data())
def test_image_gap_and_center_bound_match_scalar_reference(descriptor, space, data):
    f = builtin_map(descriptor, space)
    lo, hi, t_lo, t_hi = data.draw(_cells(f.n))
    gaps = transition._image_gaps(f, lo.T, hi.T, t_lo.T, t_hi.T)
    centers = transition._center_bounds(f, lo.T, hi.T, t_lo.T, t_hi.T)
    for r in range(len(lo)):
        cell = Box(tuple(lo[r]), tuple(hi[r]), space)
        target = Box(tuple(t_lo[r]), tuple(t_hi[r]), space)
        assert _bits(gaps[r]) == _bits(ref.image_gap(f, cell, target))
        assert _bits(centers[r]) == _bits(ref.center_bound(f, cell, target))
    reps = _tiles(len(lo))
    big = [np.tile(a, (reps, 1)).T for a in (lo, hi, t_lo, t_hi)]
    assert _bits(transition._image_gaps(f, *big)) == _bits(np.tile(gaps, reps))
    assert _bits(transition._center_bounds(f, *big)) == _bits(np.tile(centers, reps))


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
        transition._cube_bounds(s), [i], [j], [depth], np.array([k]).T, s.cube_width
    )
    for r, child in enumerate(ref.split_box(cell)):
        assert _bits(c_lo[:, r]) == _bits(child.lo) and _bits(c_hi[:, r]) == _bits(child.hi)
        assert list(kids[:, r]) == [2 * kk + ((r >> a) & 1) for a, kk in enumerate(k)]
        assert _bits(t_lo[:, r]) == _bits(s.box(j).lo) and _bits(t_hi[:, r]) == _bits(s.box(j).hi)


def _layouts(x) -> list[np.ndarray]:
    """x as a C-order array, an F-order array and a strided view, the
    three memory layouts every batch kernel must take."""
    x = np.asarray(x)
    every_other = tuple(slice(None, None, 2) for _ in x.shape)
    big = np.zeros(tuple(2 * d for d in x.shape), dtype=x.dtype)
    big[every_other] = x
    return [np.ascontiguousarray(x), np.asfortranarray(x), big[every_other]]


@pytest.mark.parametrize("descriptor, space", MAPS, ids=[m[0] for m in MAPS])
@given(data=st.data())
def test_evaluators_take_every_layout(descriptor, space, data):
    # eval_box, lift_points and eval_points give the scalar reference's
    # rows whatever the memory layout of their (k, n) inputs, and
    # eval_point gives the bits of the batch row of its point.
    f = builtin_map(descriptor, space)
    lo, hi = data.draw(_lifts(f.n))
    for direction in _directions(f):
        boxes = [ref.enclose(f, direction, a, b) for a, b in zip(lo, hi)]
        lifts = [ref.lift(f, direction, x) for x in lo]
        for x_lo, x_hi in zip(_layouts(lo), _layouts(hi)):
            out_lo, out_hi = eval_box(f, direction, x_lo, x_hi)
            assert out_lo.shape == out_hi.shape == lo.shape
            assert _bits(out_lo) == _bits([b[0] for b in boxes])
            assert _bits(out_hi) == _bits([b[1] for b in boxes])
            out = lift_points(f, direction, x_lo)
            assert out.shape == lo.shape and _bits(out) == _bits(lifts)
        for x, y in zip(lo, lifts):
            assert _bits(eval_point(f, direction, x)) == _bits(ref.wrap(space, y))
    forward = [ref.wrap(space, ref.lift(f, Direction.FORWARD, y)) for y in lo]
    for x in _layouts(lo):
        batch = eval_points(f, x)
        assert _bits(batch) == _bits(forward)
        for r in range(len(lo)):
            assert _bits(eval_point(f, Direction.FORWARD, lo[r])) == _bits(batch[r])
    # Bounds of any other shape are refused, not read as other boxes: a
    # (k, m, n) stack, rows of the wrong width, and (for n > 1) the
    # coordinates of the batch as one column.
    bad = [lo[None], np.zeros((2, f.n + 1)), np.zeros(f.n + 1)]
    bad += [lo.reshape(-1, 1)] if f.n > 1 else []
    for x in bad:
        with pytest.raises(InvalidMapError):
            eval_box(f, Direction.FORWARD, x, x)
        if map_parts(f, Direction.FORWARD).residual is not None:
            with pytest.raises(InvalidMapError):
                residual_range(f, Direction.FORWARD, x, x)


@pytest.mark.parametrize("descriptor, space", MAPS, ids=[m[0] for m in MAPS])
@given(data=st.data())
def test_graph_kernels_take_every_layout(descriptor, space, data):
    # The coordinate-major (n, ...) kernels of the graph path give the
    # scalar reference's rows from C-order, F-order and strided inputs:
    # image gaps and center bounds per cell, then a 3 x ... x 3 sample
    # grid of every cell, its images' clearances to the cell's target
    # (negative ones and half-turn ties included), and the best witness
    # among them.
    f = builtin_map(descriptor, space)
    lo, hi, t_lo, t_hi = data.draw(_cells(f.n))
    cells = [Box(tuple(a), tuple(b), space) for a, b in zip(lo, hi)]
    targets = [Box(tuple(a), tuple(b), space) for a, b in zip(t_lo, t_hi)]
    offsets = transition._sample_offsets(f.n, 3)
    pts = lo.T[:, :, None] + offsets[:, None, :] * (hi - lo).T[:, :, None]
    images = eval_points(f, pts.reshape(f.n, -1).T).T.reshape(pts.shape)
    # The middle sample's image sits half a turn from its target's center,
    # give or take a few ulps, where two torus lifts of it tie.
    half = (0.5 * (t_lo + t_hi).T + 0.5) % 1.0
    for _ in range(data.draw(st.integers(0, 3))):
        half = np.nextafter(half, data.draw(st.sampled_from([0.0, 1.0])))
    images[:, :, len(offsets.T) // 2] = half
    clear = [[ref.clearance(y, a, b, space) for y in ys.T] for ys, a, b in
             zip(images.transpose(1, 0, 2), t_lo, t_hi)]
    best = [ref.witness(ps.T, ys.T, a, b, c, d, space) for ps, ys, a, b, c, d in
            zip(pts.transpose(1, 0, 2), images.transpose(1, 0, 2), lo, hi, t_lo, t_hi)]
    for c_lo, c_hi, g_lo, g_hi, ps, ys in zip(*(_layouts(a) for a in (
        lo.T, hi.T, t_lo.T, t_hi.T, pts, images
    ))):
        gaps = transition._image_gaps(f, c_lo, c_hi, g_lo, g_hi)
        centers = transition._center_bounds(f, c_lo, c_hi, g_lo, g_hi)
        assert _bits(gaps) == _bits([ref.image_gap(f, c, t) for c, t in zip(cells, targets)])
        assert _bits(centers) == _bits([ref.center_bound(f, c, t) for c, t in zip(cells, targets)])
        got = transition._cube_clearances(ys, g_lo[..., None], g_hi[..., None], space)
        assert _bits(got) == _bits(clear)
        src = transition._cube_clearances(ps, c_lo[..., None], c_hi[..., None], space)
        hit, k, c = transition._witnesses(src, got)
        assert [(bool(h), int(i), v) for h, i, v in zip(hit, k, _bits(c))] == [
            (h, i, float(v).hex()) for h, i, v in best
        ]


@given(n=st.integers(1, 3), data=st.data())
def test_child_split_takes_every_layout(n, data):
    # Cells at mixed depths, addressed by (n, cells) arrays in each
    # layout, from cube bounds in each layout, split into the scalar
    # reference's halves.
    s = make_subdivision(n, 2, Space.TORUS)
    count = data.draw(st.integers(1, 4))
    src = [data.draw(st.integers(0, s.count - 1)) for _ in range(count)]
    tgt = [data.draw(st.integers(0, s.count - 1)) for _ in range(count)]
    level = [data.draw(st.integers(0, 8)) for _ in range(count)]
    k = np.array([[data.draw(st.integers(0, (1 << d) - 1)) for _ in range(n)] for d in level]).T
    halves = []
    for r in range(count):
        size = s.cube_width / (1 << level[r])
        a = [c + kk * size for c, kk in zip(s.box(src[r]).lo, k[:, r])]
        halves += ref.split_box(Box(tuple(a), tuple(c + size for c in a), Space.TORUS))
    cube_lo, cube_hi = transition._cube_bounds(s)
    for c_lo, c_hi, addresses in zip(_layouts(cube_lo), _layouts(cube_hi), _layouts(k)):
        kids, lo, hi, t_lo, t_hi = transition._split_cells(
            (c_lo, c_hi), src, tgt, level, addresses, s.cube_width
        )
        assert _bits(lo.T) == _bits([h.lo for h in halves])
        assert _bits(hi.T) == _bits([h.hi for h in halves])
        fan = 1 << n
        want = [2 * k[a, r // fan] + ((r % fan) >> a & 1)
                for r in range(count * fan) for a in range(n)]
        assert kids.T.ravel().tolist() == want
        assert _bits(t_lo.T) == _bits([s.box(j).lo for j in tgt for _ in range(fan)])
        assert _bits(t_hi.T) == _bits([s.box(j).hi for j in tgt for _ in range(fan)])


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 5),
    space=st.sampled_from([Space.TORUS, Space.CUBE]),
    data=st.data(),
)
def test_row_windows_keep_every_pair_within_the_band(n, m, space, data):
    # For lifted enclosures anywhere and of any width, the windows list no
    # target twice, leave out only targets whose all-pairs gap exceeds the
    # near band, and give the windowed pairs the all-pairs gaps' bits.
    s = make_subdivision(n, m, space)
    lo, hi = data.draw(_lifts(n))
    e_lo, e_hi = lo.T, hi.T
    row, j, gaps = transition._window_gaps(e_lo, e_hi, *transition._row_windows(e_lo, e_hi, s), s)
    cube_lo, cube_hi = transition._cube_bounds(s)
    every = transition._norm_lb(transition._lift_gaps(
        e_lo[:, :, None], e_hi[:, :, None], cube_lo[:, None], cube_hi[:, None], space
    ))
    codes = row * s.count + j
    assert np.unique(codes).size == codes.size
    assert _bits(gaps) == _bits(every[row, j])
    skipped = np.ones(every.shape, dtype=bool)
    skipped[row, j] = False
    assert np.all(every[skipped] > transition._NEAR_BAND * s.cube_width)


def test_a_band_below_every_gap_caps_the_minimum_gap(monkeypatch):
    # With the near band below every gap, the rows keep no near miss and
    # leave pairs out of their windows, so min_empty_gap is the band: a
    # lower bound still, and delta_bound stays finite there.  The verdicts
    # do not depend on the band.
    f = builtin_map("standard K=0.3")
    s = make_subdivision(2, 3, Space.TORUS)
    full = transition.build_graph(f, s)
    cap = 0.5 * full.min_empty_gap
    monkeypatch.setattr(transition, "_NEAR_BAND", cap / s.cube_width)
    g = transition.build_graph(f, s)
    assert g.min_empty_gap == cap < g.gaps.min()
    assert transition.delta_bound(g, allow_uncertain=True) == cap
    assert np.array_equal(g.witness_codes, full.witness_codes)
    assert np.array_equal(g.uncertain_codes, full.uncertain_codes)
    # The stored gaps are the refined-empty pairs' alone.
    assert set(g.empty_gaps) < set(full.empty_gaps)


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
def test_min_gap_search_matches_the_one_heap_reference(descriptor, n, m, space):
    # Round by round over columns, the search must find the minimum the
    # plain one-heap reference finds, to within its tolerance, never below
    # the least coarse gap and never above the near band.
    f = builtin_map(descriptor, space)
    s = make_subdivision(n, m, space)
    rng = np.random.default_rng(0)
    coarse = {}
    for code in sorted(rng.choice(s.count * s.count, 40, replace=False).tolist()):
        i, j = divmod(code, s.count)
        gap = ref.image_gap(f, s.box(i), s.box(j))
        if gap > 0.0:
            coarse[(i, j)] = gap
    assert len(coarse) >= 5
    codes = np.array([i * s.count + j for i, j in coarse], dtype=np.int64)
    gaps = np.array(list(coarse.values()))
    least = transition._min_gap_search(f, s, transition._cube_bounds(s), codes, gaps, math.inf)
    want = ref.min_gap(f, s, coarse)
    assert abs(least - want) <= s.cube_width * 2.0 ** -12
    assert min(gaps.min(), transition._NEAR_BAND * s.cube_width) <= least
    assert least <= transition._NEAR_BAND * s.cube_width


@pytest.mark.parametrize(
    "descriptor, m",
    [
        pytest.param("standard K=0.3", 3, id="standard K=0.3"),
        pytest.param("translation [0.3,0.1]", 3, id="translation [0.3,0.1]"),
        pytest.param("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 2, id="perturbed m=2"),
    ],
)
def test_build_graph_matches_the_sequential_reference(monkeypatch, descriptor, m):
    # The refinement and its closing gaps run one pair after another in
    # the reference; the lockstep build must agree, bit for bit, and so
    # must the gaps it stores and the sharpened minimum.
    f = builtin_map(descriptor)
    s = make_subdivision(2, m, Space.TORUS)
    lockstep = transition.build_graph(f, s)
    want = json.dumps(lockstep.to_json())
    monkeypatch.setattr(transition, "_refine_uncertain", ref.refine_uncertain)
    sequential = transition.build_graph(f, s)
    assert np.array_equal(lockstep.gap_pairs, sequential.gap_pairs)
    assert _bits(lockstep.gaps) == _bits(sequential.gaps)
    assert lockstep == sequential
    assert lockstep.sharpened_min_gap.hex() == sequential.sharpened_min_gap.hex()
    assert want == json.dumps(lockstep.to_json()) == json.dumps(sequential.to_json())
    assert lockstep.empty_gaps and (lockstep.uncertain or descriptor.startswith("translation"))


_GAP_GRAPHS = {
    "standard-m3": ("standard K=0.3", 3),
    "perturbed-m2": ("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 2),
    "cat-m3": ("toral [[2,1],[1,1]]", 3),
}


@functools.cache
def _gap_graph(name: str):
    descriptor, m = _GAP_GRAPHS[name]
    f = builtin_map(descriptor)
    return f, transition.build_graph(f, make_subdivision(2, m, Space.TORUS))


def _exact_distance(y, box: Box):
    """dist(y, box) on the torus at the working precision."""
    total = mpmath.mpf(0)
    for v, a, b in zip(y, box.lo, box.hi):
        v = v - mpmath.floor(v)
        gap = min(
            max(mpmath.mpf(a) - (v + t), (v + t) - mpmath.mpf(b), 0) for t in (-1, 0, 1)
        )
        total += gap * gap
    return mpmath.sqrt(total)


@pytest.mark.parametrize("name", sorted(_GAP_GRAPHS))
@given(data=st.data())
def test_stored_gaps_are_at_most_the_sampled_distance(name, data):
    # Every stored gap, the minimum and the sharpened minimum bound from
    # below the distance of the 60-digit image of any point of the source
    # cube to the target.
    f, g = _gap_graph(name)
    s = g.subdivision
    i, j = data.draw(st.sampled_from(sorted(g.empty_gaps)))
    local = data.draw(st.lists(_coord, min_size=s.n, max_size=s.n))
    x = [a + u * s.cube_width for a, u in zip(s.box(i).lo, local)]
    with mpmath.workdps(60):
        d = _exact_distance(_exact_image(f, Direction.FORWARD, x), s.box(j))
        assert mpmath.mpf(g.empty_gaps[(i, j)]) <= d, (i, j, x)
        assert mpmath.mpf(g.min_empty_gap) <= d, (i, j, x)
        assert mpmath.mpf(g.sharpened_min_gap) <= d, (i, j, x)


@pytest.mark.parametrize("name", sorted(_GAP_GRAPHS))
def test_min_empty_gap_is_at_most_the_dense_sampled_distance(name):
    # The pair that sets the minimum, sampled on a closed 33 x 33 grid.
    f, g = _gap_graph(name)
    s = g.subdivision
    (i, j), least = min(g.empty_gaps.items(), key=lambda kv: kv[1])
    assert least == g.min_empty_gap
    axis = np.linspace(0.0, 1.0, 33)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    with mpmath.workdps(60):
        for x in (np.array(s.box(i).lo) + grid * s.cube_width).tolist():
            d = _exact_distance(_exact_image(f, Direction.FORWARD, x), s.box(j))
            assert mpmath.mpf(least) <= d, x


def test_a_small_cell_budget_stops_the_gap_search_soundly(monkeypatch):
    # Out of live cells or pops, the search stops early: still positive,
    # never below the stored gaps and never above the converged minimum,
    # since the rounds it runs are the first rounds of the converged
    # search.  A larger budget runs more of them, so its minimum is no
    # smaller.
    f, g = _gap_graph("cat-m3")
    converged = g.gap_search()
    found = []
    for held in (1, 1 << 8, 1 << 9, 1 << 10):
        monkeypatch.setattr(transition, "_HELD_CELLS", held)
        least = g.gap_search()
        assert 0.0 < g.min_empty_gap <= least <= converged
        found.append(least)
    assert found[0] == g.gaps.min() == g.min_empty_gap
    assert found == sorted(set(found)) and found[-1] < converged
