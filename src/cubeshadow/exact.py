"""Exact rational iteration for the affine map kinds, on integers.

Hyperbolic linear maps amplify coordinate error by the expanding
eigenvalue at every step, so a float orbit of length 100 carries no
information about its starting point.  Shadow points are therefore exact
rationals; every map whose data is a finite float matrix/offset
(identity, translation, toral, affine) has an exact affine form, since
floats are rationals.  Trigonometric kinds do not and fall back to float
pipelines.

A step x -> (M x + c) / D holds an integer matrix M, an integer offset c
and one denominator D > 0; an orbit point is integer numerators over one
denominator, and torus reduction is ``% denominator``.  Unlike
``Fraction`` this pays no gcd per operation.  Fractions appear only at
the edges (``apply`` on a ``FracVec``, the rationals handed to callers),
and ``int / int`` rounds correctly, as ``float(Fraction)`` does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .dynamics import Direction, MapSpec, adjugate, is_exactly_affine
from .errors import InvalidMapError, NotHyperbolicError, NotInvertibleError

# Decimal digits of the rational square root behind eigen_directions.
_EIGEN_DIGITS = 60

FracVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


supports_exact = is_exactly_affine


def frac_vec(values) -> FracVec:
    return tuple(Fraction(v) for v in values)


def to_ints(values) -> tuple[IntVec, int]:
    """Rationals (or floats) as integer numerators over their least common denominator."""
    fr = frac_vec(values)
    den = math.lcm(*(v.denominator for v in fr))
    return tuple(v.numerator * (den // v.denominator) for v in fr), den


def to_fracs(nums: IntVec, den: int) -> FracVec:
    return tuple(Fraction(v, den) for v in nums)


def _apply(m: IntMat, v: IntVec) -> IntVec:
    return tuple(sum(map(mul, row, v)) for row in m)


def solve(m: IntMat, rhs: IntVec) -> tuple[IntVec, int]:
    """Numerators and positive denominator of the x with m x = rhs;
    NotInvertibleError when m is singular."""
    adj, det = adjugate(m)
    if det == 0:
        raise NotInvertibleError("matrix is singular over the rationals")
    sign = 1 if det > 0 else -1
    return tuple(sign * v for v in _apply(adj, rhs)), sign * det


@dataclass(frozen=True)
class ExactAffine:
    """One exact affine step x -> (M x + c) / D, reduced mod 1 when wrap is set.

    ``matrix`` and ``offset`` hold integers and ``denom`` is positive.
    """

    matrix: IntMat
    offset: IntVec
    denom: int
    wrap: bool

    def apply(self, x: FracVec) -> FracVec:
        nums, dens = self.orbit(*to_ints(x), 1)
        return to_fracs(nums[-1], dens[-1])

    def orbit(self, x: IntVec, den: int, steps: int) -> tuple[list[IntVec], list[int]]:
        """x / den and its next ``steps`` images, as numerators and denominators.

        An integral matrix keeps one denominator, a multiple of D, along
        the whole orbit; otherwise every step multiplies it by D.
        """
        m, c, d = self.matrix, self.offset, self.denom
        integral = all(v % d == 0 for row in m for v in row)
        if integral:  # rescale x / den to a denominator that D divides
            g = d // math.gcd(den, d)
            x, den = tuple(v * g for v in x), den * g
            m = tuple(tuple(v // d for v in row) for row in m)
            c = tuple(v * (den // d) for v in c)
        nums, dens = [x], [den]
        for _ in range(steps):
            if not integral:
                c, den = tuple(v * den for v in self.offset), den * d
            x = tuple(sum(map(mul, row, x)) + b for row, b in zip(m, c))
            if self.wrap:
                x = tuple(v % den for v in x)
            nums.append(x)
            dens.append(den)
        return nums, dens

    def pull_back(self, w: IntVec, offsets) -> tuple[IntVec, int, int]:
        """(v, o, d) with w . X_N = (v . X_0 + o) / d for the N steps
        X_{j+1} = (M X_j + offsets[j]) / D, never reduced mod 1: the one
        exact lift walker, carrying the integer row functional w from time
        N back to time 0 with one vector-times-matrix product per step."""
        cols, v, o = tuple(zip(*self.matrix)), w, 0
        for c in reversed(offsets):
            o = sum(map(mul, v, c)) + o * self.denom
            v = tuple([sum(map(mul, v, col)) for col in cols])
        return v, o, self.denom ** len(offsets)

    def along(self, offsets) -> "ExactAffine":
        """The unreduced map X_0 -> X_N of those steps, row by row."""
        n = len(self.matrix)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        matrix, offset, dens = zip(*(self.pull_back(row, offsets) for row in eye))
        return ExactAffine(matrix, offset, dens[0], wrap=False)

    def inverse(self) -> "ExactAffine":
        """y -> M^-1 (D y - c) = adj(M) (D y - c) / det(M); NotInvertibleError
        when M is singular."""
        adj, det = adjugate(self.matrix)
        if det == 0:
            raise NotInvertibleError("matrix is singular over the rationals")
        sign = 1 if det > 0 else -1
        mat = tuple(tuple(sign * self.denom * v for v in row) for row in adj)
        off = tuple(-sign * v for v in _apply(adj, self.offset))
        return ExactAffine(mat, off, sign * det, self.wrap)

    def fixed_point(self) -> tuple[IntVec, int]:
        """Numerators and denominator of the x with M x + c = D x, unreduced;
        NotInvertibleError if M - D I is singular."""
        eye_minus = tuple(
            tuple(self.denom * (i == j) - v for j, v in enumerate(row))
            for i, row in enumerate(self.matrix)
        )
        return solve(eye_minus, self.offset)


@lru_cache(maxsize=64)
def exact_step(f: MapSpec, direction: Direction = Direction.FORWARD) -> ExactAffine:
    """The map (or its inverse) as one exact affine step, cached per map
    and direction (both are immutable, and so is the step)."""
    if not supports_exact(f):
        raise InvalidMapError(f"map kind {f.kind.value!r} has no exact affine form")
    n = f.n
    flat, den = to_ints([v for row in f.matrix for v in row] + list(f.offset))
    mat = tuple(flat[i * n:(i + 1) * n] for i in range(n))
    step = ExactAffine(mat, flat[n * n:], den, f.space.value == "torus")
    if direction is Direction.INVERSE:
        if not f.invertible:
            raise NotInvertibleError(f"{f.descriptor} has no inverse")
        step = step.inverse()
    return step


def _sqrt_fraction(x: Fraction, digits: int) -> Fraction:
    """Rational sqrt(x) with relative error about 10^-digits (x > 0)."""
    scale = 10 ** digits
    num = x.numerator * x.denominator * scale * scale
    return Fraction(math.isqrt(num), x.denominator * scale)


@dataclass(frozen=True)
class EigenDirections:
    """Rational near-eigenvectors of a 2x2 matrix with real split spectrum.

    Directions are unnormalized; lam_* are float approximations of the
    eigenvalues.  The vectors are accurate to roughly 10^-_EIGEN_DIGITS, so a
    power M^k applied to them stays eigen-aligned up to lam_u^k * 10^-_EIGEN_DIGITS.
    """

    row_u: FracVec
    row_s: FracVec
    lam_u: float
    lam_s: float


def eigen_directions(f: MapSpec) -> EigenDirections | None:
    """Expanding/contracting directions of a 2x2 exact map, or None."""
    if not supports_exact(f) or f.n != 2:
        return None
    m = tuple(frac_vec(row) for row in f.matrix)
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    disc = tr * tr - 4 * det
    if disc <= 0:
        return None
    root = _sqrt_fraction(disc, _EIGEN_DIGITS)
    lam_u, lam_s = sorted(((tr + root) / 2, (tr - root) / 2), key=abs, reverse=True)
    if abs(lam_u) <= 1 or abs(lam_s) >= 1:
        return None

    def _vector(lam: Fraction) -> FracVec:
        # (M - lam I) v = 0; pick the row with the larger off-diagonal entry.
        if abs(m[0][1]) >= abs(m[1][0]):
            return (m[0][1], lam - m[0][0])
        return (lam - m[1][1], m[1][0])

    return EigenDirections(
        row_u=_vector(lam_u),
        row_s=_vector(lam_s),
        lam_u=float(lam_u),
        lam_s=float(lam_s),
    )


def periodic_points(f: MapSpec, period: int) -> list[FracVec]:
    """All fixed points of f^period on the torus, as exact rationals.

    With f^period = (M x + c) / D, solves (M - D I) x = D z - c over every
    integer vector z that can place x in [0,1)^n; the solution count
    equals |det(f^period - I)|.
    """
    if f.space.value != "torus":
        raise InvalidMapError("periodic point enumeration requires the torus")
    if period < 1:
        raise ValueError("period must be >= 1")
    step = exact_step(f, Direction.FORWARD)
    power = step.along([step.offset] * period)
    d = power.denom
    m = tuple(
        tuple(v - d * (i == j) for j, v in enumerate(row))
        for i, row in enumerate(power.matrix)
    )
    adj, det = adjugate(m)
    if det == 0:
        raise NotHyperbolicError(
            "f^period - identity is singular; fixed set is not finite"
        )
    # z_i = ((M - D I) x + c)_i / D for x in [0,1]^n
    ranges = []
    for row, c in zip(m, power.offset):
        lo = c + sum(min(v, 0) for v in row)
        hi = c + sum(max(v, 0) for v in row)
        ranges.append(range(-(-lo // d), hi // d + 1))

    found = []
    for z in itertools.product(*ranges):
        x = to_fracs(_apply(adj, tuple(d * zi - c for zi, c in zip(z, power.offset))), det)
        if all(0 <= xi < 1 for xi in x):
            found.append(x)
    return sorted(set(found))


def minimal_period(f: MapSpec, x: FracVec, period: int) -> int:
    """Smallest q >= 1 dividing period with f^q(x) = x exactly (mod 1 on the torus)."""
    step = exact_step(f, Direction.FORWARD)
    start, den = to_ints(x)
    if step.wrap:  # a lift of a periodic point closes up only mod 1
        start = tuple(v % den for v in start)
    nums, dens = step.orbit(start, den, period)
    for q in range(1, period + 1):
        if period % q == 0 and all(
            a * den == b * dens[q] for a, b in zip(nums[q], start)
        ):
            return q
    raise ValueError("x is not periodic with the stated period")
