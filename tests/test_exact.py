import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from cubeshadow.dynamics import Direction, affine_map, builtin_map
from cubeshadow.errors import NotHyperbolicError
from cubeshadow.exact import (
    ExactAffine,
    adjugate,
    eigen_directions,
    exact_step,
    frac_vec,
    minimal_period,
    periodic_points,
    supports_exact,
    to_fracs,
    to_ints,
)
from cubeshadow.geometry import Space
from cubeshadow.shadowing import (
    PseudoOrbit,
    _orbit,
    _window_errors,
    pseudo_orbit,
    true_orbit,
)

CAT = builtin_map("toral [[2,1],[1,1]]")
STANDARD = builtin_map("standard k=0.3")


def test_supports_exact_kinds():
    assert supports_exact(CAT)
    assert supports_exact(builtin_map("identity n=2"))
    assert not supports_exact(STANDARD)


def test_frac_round_trip_is_exact():
    x = 0.1
    assert float(frac_vec([x])[0]) == x
    assert to_ints([Fraction(1, 3), 0.5]) == ((2, 3), 6)
    assert to_fracs(*to_ints([Fraction(1, 3), x])) == (Fraction(1, 3), Fraction(x))


def test_integer_walk_reduces_mod_one_and_errors_take_the_nearest_lift():
    shift = ExactAffine(((1, 0), (0, 1)), (0, 0), 1, wrap=True)
    nums, dens = shift.orbit((7, -1), 5, 1)
    assert to_fracs(nums[1], dens[1]) == (Fraction(2, 5), Fraction(4, 5))
    # 9/10 - 0 and -2/5 - 0 lie nearest to -1/10 and -2/5 mod 1
    p = pseudo_orbit(builtin_map("identity n=2"), [(0.0, 0.0)], 0.0)
    assert p.space is Space.TORUS
    assert _window_errors(p, [(9, -4)], [10]) == [math.hypot(-0.1, -0.4)]


def test_exact_step_applies_matrix_mod_one():
    step = exact_step(CAT, Direction.FORWARD)
    x = (Fraction(1, 5), Fraction(3, 10))
    y = step.apply(x)
    assert y == (Fraction(7, 10), Fraction(1, 2))


def test_exact_inverse_round_trips():
    fwd = exact_step(CAT, Direction.FORWARD)
    inv = exact_step(CAT, Direction.INVERSE)
    x = frac_vec((0.37, 0.81))
    assert inv.apply(fwd.apply(x)) == tuple(v - math.floor(v) for v in x)
    assert _orbit(CAT, x, -2, 2)[0][2] == to_ints(x)[0]


def test_minimal_period_accepts_torus_lifts():
    # A lift of a periodic point closes up mod 1, not as a rational.
    assert minimal_period(CAT, (Fraction(6, 5), Fraction(2, 5)), 2) == 2
    assert minimal_period(CAT, (Fraction(-4, 5), Fraction(7, 5)), 2) == 2
    assert minimal_period(CAT, (Fraction(1), Fraction(-2)), 4) == 1


def test_adjugate_inverts_the_cat_matrix():
    assert adjugate(((2, 1), (1, 1))) == (((1, -1), (-1, 2)), 1)
    assert adjugate(((2, 0, 0), (0, 3, 0), (0, 0, 4)))[1] == 24


def test_eigen_directions_cat():
    eig = eigen_directions(CAT)
    assert eig is not None
    assert eig.lam_u == pytest.approx((3 + 5 ** 0.5) / 2, abs=1e-12)
    assert eig.lam_s == pytest.approx((3 - 5 ** 0.5) / 2, abs=1e-12)
    # M v stays parallel to v: exact cross product is tiny, not float-tiny
    for v in (eig.row_u, eig.row_s):
        mv = (2 * v[0] + v[1], v[0] + v[1])
        cross = mv[0] * v[1] - mv[1] * v[0]
        assert abs(cross) < Fraction(1, 10 ** 50)


def test_eigen_directions_none_for_identity():
    assert eigen_directions(builtin_map("identity n=2")) is None


def test_fixed_points_of_cat():
    pts = periodic_points(CAT, 1)
    assert pts == [(Fraction(0), Fraction(0))]


def test_period_two_points_of_cat():
    pts = periodic_points(CAT, 2)
    assert pts == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(2, 5), Fraction(4, 5)),
        (Fraction(3, 5), Fraction(1, 5)),
        (Fraction(4, 5), Fraction(3, 5)),
    ]
    periods = {p: minimal_period(CAT, p, 2) for p in pts}
    assert periods[(Fraction(0), Fraction(0))] == 1
    assert all(
        periods[p] == 2 for p in pts if p != (Fraction(0), Fraction(0))
    )


def test_period_three_count_matches_determinant():
    # |det(A^3 - I)| counts period-3 lattice classes
    assert len(periodic_points(CAT, 3)) == 16


@pytest.mark.parametrize(
    "descriptor", ["identity n=2", "identity n=3", "toral [[1,1,0],[0,1,0],[0,0,1]]"]
)
def test_singular_power_minus_identity_is_not_hyperbolic(descriptor):
    # f - I is singular, so the fixed set is a continuum in every dimension.
    with pytest.raises(NotHyperbolicError, match="singular"):
        periodic_points(builtin_map(descriptor), 1)


# Integer matrices of determinant +-1, hyperbolic or not.
_UNIMODULAR = [((2, 1), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1)),
               ((-2, -1), (-1, -1)), ((3, 2), (4, 3)), ((1, -2), (0, -1))]


@st.composite
def _walks(draw):
    """An exactly-affine map, a rational start and a pseudo-orbit over a window:
    unimodular matrices with dyadic offsets on the torus, or a non-integer
    matrix with a non-dyadic offset on the cube."""
    if draw(st.booleans()):
        offset = [draw(st.integers(0, 255)) / 256 for _ in range(2)]
        f = affine_map(draw(st.sampled_from(_UNIMODULAR)), offset, Space.TORUS)
    else:
        entry = st.sampled_from([0.5, 0.1, -0.3, 0.45, 0.05, 1.25, 0.0])
        matrix = [[draw(entry) for _ in range(2)] for _ in range(2)]
        f = affine_map(matrix, [draw(st.sampled_from([0.2, 0.3, 0.0]))] * 2, Space.CUBE)
    x = tuple(Fraction(draw(st.integers(-50, 99)), draw(st.integers(1, 97))) for _ in range(2))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    point = st.tuples(unit, unit)
    if draw(st.booleans()):
        points = draw(st.lists(point, min_size=1, max_size=6))
        return f, x, PseudoOrbit(tuple(points), 1.0, f.space, periodic=len(points))
    lo = -draw(st.integers(0, 4)) if f.invertible else 0
    points = draw(st.lists(point, min_size=1 - lo, max_size=9 - lo))
    return f, x, PseudoOrbit(tuple(points), 1.0, f.space, lo=lo)


@settings(max_examples=60)
@given(case=_walks())
def test_integer_walk_matches_the_fraction_reference(case):
    f, x, p = case
    want = ref.true_orbit(f, x, p.lo, p.hi)
    assert true_orbit(f, x, p.lo, p.hi) == want
    assert _window_errors(p, *_orbit(f, x, p.lo, p.hi)) == ref.window_errors(p, want)
    assert exact_step(f).apply(x) == ref.step(f, Direction.FORWARD)(x)


@settings(max_examples=40)
@given(
    entries=st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    denom=st.integers(1, 7),
    offsets=st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=12),
    x=st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=50), min_size=2,
               max_size=2),
)
def test_pull_back_and_along_match_fraction_steps(entries, denom, offsets, x):
    # Step x through X_{j+1} = (M X_j + offsets[j]) / D one Fraction step at
    # a time, never reduced mod 1: the walker's functional and period map
    # must give exactly these values.
    m = (tuple(entries[:2]), tuple(entries[2:]))
    step = ExactAffine(m, (0, 0), denom, wrap=True)
    y = list(x)
    for c in offsets:
        y = [(sum(a * b for a, b in zip(row, y)) + cj) / denom for row, cj in zip(m, c)]
    for w in ((1, 0), (0, 1), (3, -2)):
        v, o, d = step.pull_back(w, offsets)
        assert (sum(a * b for a, b in zip(v, x)) + o) / Fraction(d) == sum(
            a * b for a, b in zip(w, y))
    power = step.along(offsets)
    assert not power.wrap and power.denom == denom ** len(offsets)
    assert [(sum(a * b for a, b in zip(row, x)) + c) / power.denom
            for row, c in zip(power.matrix, power.offset)] == y
