from fractions import Fraction

import pytest

from cubeshadow.dynamics import Direction, builtin_map
from cubeshadow.errors import NotHyperbolicError
from cubeshadow.exact import (
    eigen_directions,
    exact_step,
    frac,
    frac_vec,
    fraction_inverse,
    minimal_period,
    nearest_lift,
    periodic_points,
    supports_exact,
    torus_reduce,
)

CAT = builtin_map("toral [[2,1],[1,1]]")
STANDARD = builtin_map("standard k=0.3")


def test_supports_exact_kinds():
    assert supports_exact(CAT)
    assert supports_exact(builtin_map("identity n=2"))
    assert not supports_exact(STANDARD)


def test_frac_round_trip_is_exact():
    x = 0.1
    assert float(frac(x)) == x
    assert frac(Fraction(1, 3)) == Fraction(1, 3)


def test_torus_reduce_and_nearest_lift():
    assert torus_reduce((Fraction(7, 5), Fraction(-1, 5))) == (
        Fraction(2, 5),
        Fraction(4, 5),
    )
    assert nearest_lift((Fraction(9, 10), Fraction(-2, 5))) == (
        Fraction(-1, 10),
        Fraction(-2, 5),
    )


def test_exact_step_applies_matrix_mod_one():
    step = exact_step(CAT, Direction.FORWARD)
    x = (Fraction(1, 5), Fraction(3, 10))
    y = step.apply(x)
    assert y == (Fraction(7, 10), Fraction(1, 2))


def test_exact_inverse_round_trips():
    fwd = exact_step(CAT, Direction.FORWARD)
    inv = exact_step(CAT, Direction.INVERSE)
    x = frac_vec((0.37, 0.81))
    assert inv.apply(fwd.apply(x)) == torus_reduce(x)


def test_fraction_inverse_identity():
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    inv = fraction_inverse(m)
    assert inv == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))


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
