from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubeshadow.errors import ResourceLimitError
from cubeshadow.geometry import (
    Box,
    Space,
    chi,
    cubes_of_points,
    make_subdivision,
    space_diameter,
)
from scalar_reference import (
    cube_of_point,
    cubes_containing_point,
    point_distance,
    set_distance_lb,
    split_lift,
)


def test_subdivision_counts():
    assert make_subdivision(2, 1, Space.CUBE).count == 4
    assert make_subdivision(2, 0, Space.TORUS).count == 1
    assert make_subdivision(3, 2, Space.CUBE).count == 64


def test_subdivision_budget():
    with pytest.raises(ResourceLimitError):
        make_subdivision(2, 11, Space.TORUS, budget=1 << 20)


def test_flat_multi_roundtrip():
    s = make_subdivision(3, 2, Space.TORUS)
    for flat in range(s.count):
        multi = s.multi_index(flat)
        assert s.flat_index(multi) == flat


def test_flat_index_rejects_a_wrong_length():
    s = make_subdivision(2, 3, Space.TORUS)
    with pytest.raises(ValueError, match="length"):
        s.flat_index((0, 1, 2))


def test_cube_boxes_are_exact_dyadics():
    s = make_subdivision(2, 3, Space.CUBE)
    b = s.box(s.flat_index((3, 5)))
    assert b.lo == (3 / 8, 5 / 8)
    assert b.hi == (4 / 8, 6 / 8)


def test_cube_of_point_interior():
    s = make_subdivision(2, 1, Space.CUBE)
    assert cube_of_point(s, (0.3, 0.7)) == s.flat_index((0, 1))


def test_cube_of_point_boundary_tie_break():
    s = make_subdivision(2, 1, Space.CUBE)
    # A grid-hyperplane point belongs to several cubes; the smallest index wins.
    assert cube_of_point(s, (0.5, 0.5)) == s.flat_index((0, 0))


def test_cube_of_point_torus_wrap():
    s = make_subdivision(2, 2, Space.TORUS)
    assert cube_of_point(s, (0.999, 0.0)) == s.flat_index((3, 0))
    # 1.0 is the same torus point as 0.0: candidates {3, 0}, pick 0.
    assert cube_of_point(s, (1.0, 0.3)) == s.flat_index((0, 1))


def test_cubes_containing_point_corner():
    s = make_subdivision(2, 1, Space.TORUS)
    assert cubes_containing_point(s, (0.5, 0.5)) == [0, 1, 2, 3]
    # Torus corner (0,0) is shared with the wrapped neighbors.
    assert cubes_containing_point(s, (0.0, 0.0)) == [0, 1, 2, 3]


def test_chi_values():
    assert chi(make_subdivision(2, 1, Space.TORUS)) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-15
    )
    assert chi(make_subdivision(2, 6, Space.TORUS)) == pytest.approx(
        math.sqrt(2) / 64, abs=1e-15
    )
    assert chi(make_subdivision(1, 3, Space.CUBE)) == pytest.approx(0.125, abs=1e-15)
    # Order 0 on the torus is capped by the torus diameter.
    assert chi(make_subdivision(2, 0, Space.TORUS)) == pytest.approx(
        space_diameter(2, Space.TORUS), abs=1e-15
    )


def test_chi_halves_under_refinement():
    for m in range(1, 6):
        a = chi(make_subdivision(2, m, Space.TORUS))
        b = chi(make_subdivision(2, m + 1, Space.TORUS))
        assert b == pytest.approx(a / 2, rel=1e-15)


def test_refinement_nesting():
    coarse = make_subdivision(2, 2, Space.CUBE)
    fine = make_subdivision(2, 3, Space.CUBE)
    for i in range(fine.count):
        parent = coarse.flat_index(tuple(k // 2 for k in fine.multi_index(i)))
        cb, pb = fine.box(i), coarse.box(parent)
        assert all(p <= c for p, c in zip(pb.lo, cb.lo))
        assert all(c <= p for c, p in zip(cb.hi, pb.hi))


def test_partition_property():
    # Random points, points on grid hyperplanes (0 and 1 included), and, on
    # the torus, lifts one period outside [0, 1): every point lies in the
    # cube cube_of_point names, which is the least of the cubes holding it.
    rng = np.random.default_rng(7)
    for space in (Space.CUBE, Space.TORUS):
        for n in (1, 2, 3):
            s = make_subdivision(n, 3, space)
            points = list(rng.random((200, n)))
            grid = rng.integers(0, s.side + 1, size=(100, n)) / s.side
            points += list(np.where(rng.random((100, n)) < 0.5, grid, rng.random((100, n))))
            if space is Space.TORUS:
                points += [q + rng.choice([-1.0, 1.0], size=n) for q in points]
            for p in points:
                cube = cube_of_point(s, p)
                assert cube == min(cubes_containing_point(s, p))
                assert s.box(cube).contains_point(p)


@given(data=st.data())
@pytest.mark.parametrize("space", list(Space))
def test_batched_cube_lookup_is_the_smallest_containing_cube(space, data):
    # Grid hyperplanes (0 and 1 included) are where the smallest of several
    # containing cubes must be picked; on the torus so are tiny negative
    # coordinates, whose reduction mod 1 rounds to 1, and lifts one period out.
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    s = make_subdivision(n, m, space)
    coord = st.one_of(
        st.integers(0, s.side).map(lambda k: k / s.side),
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 1.0),
    )
    if space is Space.TORUS:
        coord = st.one_of(
            coord,
            st.sampled_from([-5e-324, -1e-300, -1e-17]),
            st.tuples(coord, st.sampled_from([-1.0, 1.0])).map(sum),
        )
    points = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=20))
    cubes = cubes_of_points(s, points).tolist()
    assert cubes == [min(cubes_containing_point(s, q)) for q in points]
    assert cubes == [cube_of_point(s, q) for q in points]


def test_set_distance_axis_gap():
    a = Box((0.0, 0.0), (0.25, 0.25), Space.CUBE)
    b = Box((0.5, 0.0), (0.75, 0.25), Space.CUBE)
    assert set_distance_lb(a, b) == pytest.approx(0.25, abs=1e-12)


def test_set_distance_torus_wrap_touch():
    a = Box((0.0,), (0.1,), Space.TORUS)
    b = Box((0.9,), (1.0,), Space.TORUS)
    assert set_distance_lb(a, b) == 0.0


def test_set_distance_diagonal():
    a = Box((0.0, 0.0), (0.25, 0.25), Space.CUBE)
    b = Box((0.5, 0.5), (0.75, 0.75), Space.CUBE)
    assert set_distance_lb(a, b) == pytest.approx(0.25 * math.sqrt(2), abs=1e-12)


def test_set_distance_is_sound_lower_bound():
    rng = np.random.default_rng(11)
    for space in (Space.CUBE, Space.TORUS):
        for _ in range(300):
            lo_a = rng.random(2) * 0.8
            lo_b = rng.random(2) * 0.8
            a = Box(tuple(lo_a), tuple(lo_a + rng.random(2) * 0.2), space)
            b = Box(tuple(lo_b), tuple(lo_b + rng.random(2) * 0.2), space)
            lb = set_distance_lb(a, b)
            for _ in range(20):
                x = a.lo_arr + rng.random(2) * (a.hi_arr - a.lo_arr)
                y = b.lo_arr + rng.random(2) * (b.hi_arr - b.lo_arr)
                assert point_distance(x, y, space) >= lb - 1e-12


def test_split_lift_identity_piece():
    (box,) = split_lift((0.2, 0.3), (0.4, 0.5), Space.TORUS)
    assert box.lo == (0.2, 0.3) and box.hi == (0.4, 0.5)


def test_split_lift_wraps_and_splits():
    boxes = split_lift((0.75, -0.25), (1.25, 0.25), Space.TORUS)
    assert len(boxes) == 4
    # Total width per axis is preserved by the splitting.
    for d in range(2):
        spans = sorted({(b.lo[d], b.hi[d]) for b in boxes})
        assert sum(hi - lo for lo, hi in spans) == pytest.approx(0.5, abs=1e-12)
    # Membership survives wrapping: a point of the lift, reduced mod 1.
    assert any(b.contains_point((0.9, 0.9)) for b in boxes)
    assert any(b.contains_point((0.1, 0.1)) for b in boxes)


def test_split_lift_full_axis():
    boxes = split_lift((-0.2, 0.0), (1.1, 0.5), Space.TORUS)
    assert all(b.lo[0] == 0.0 and b.hi[0] == 1.0 for b in boxes)


def test_subdivision_json():
    s = make_subdivision(2, 4, Space.TORUS)
    assert s.to_json() == {"n": 2, "m": 4, "space": "torus", "count": 256}
