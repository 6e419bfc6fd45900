"""Exact rational iteration for the affine map kinds.

Hyperbolic linear maps amplify coordinate error by the expanding
eigenvalue at every step, so a float orbit of length 100 carries no
information about its starting point.  Shadow points are therefore
represented as exact rationals and iterated with Fraction arithmetic;
every map whose data is a finite float matrix/offset (identity,
translation, toral, affine) supports this, since floats are rationals.
Trigonometric kinds do not and fall back to float pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import Direction, MapSpec, is_exactly_affine
from .errors import InvalidMapError, NotHyperbolicError, NotInvertibleError

FracVec = tuple[Fraction, ...]
FracMat = tuple[tuple[Fraction, ...], ...]


supports_exact = is_exactly_affine


def frac(x) -> Fraction:
    return Fraction(x)


def frac_vec(values) -> FracVec:
    return tuple(Fraction(v) for v in values)


def _identity_mat(n: int) -> FracMat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def _mat_vec(m: FracMat, v: FracVec) -> FracVec:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _mat_mat(a: FracMat, b: FracMat) -> FracMat:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def fraction_inverse(m: FracMat) -> FracMat:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(m)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise NotInvertibleError("matrix is singular over the rationals")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def torus_reduce(v: FracVec) -> FracVec:
    return tuple(x - math.floor(x) for x in v)


def nearest_lift(v: FracVec) -> FracVec:
    """Representative of v modulo Z^n with every coordinate in [-1/2, 1/2)."""
    half = Fraction(1, 2)
    return tuple(x - math.floor(x + half) for x in v)


@dataclass(frozen=True)
class ExactAffine:
    """One exact affine step x -> M x + c, reduced mod 1 when wrap is set."""

    matrix: FracMat
    offset: FracVec
    wrap: bool

    @classmethod
    def identity(cls, n: int, wrap: bool) -> "ExactAffine":
        return cls(_identity_mat(n), (Fraction(0),) * n, wrap)

    @property
    def n(self) -> int:
        return len(self.offset)

    def apply(self, x: FracVec) -> FracVec:
        y = tuple(a + b for a, b in zip(_mat_vec(self.matrix, x), self.offset))
        return torus_reduce(y) if self.wrap else y

    def compose(self, inner: "ExactAffine") -> "ExactAffine":
        """self after inner.  Torus offsets are reduced to keep numbers small."""
        mat = _mat_mat(self.matrix, inner.matrix)
        off = tuple(
            a + b
            for a, b in zip(_mat_vec(self.matrix, inner.offset), self.offset)
        )
        if self.wrap:
            off = torus_reduce(off)
        return ExactAffine(mat, off, self.wrap)

    def inverse(self) -> "ExactAffine":
        """x -> M^-1 (x - c); NotInvertibleError when M is singular."""
        inv = fraction_inverse(self.matrix)
        return ExactAffine(inv, tuple(-v for v in _mat_vec(inv, self.offset)), self.wrap)

    def fixed_point(self) -> FracVec:
        """The x with M x + c = x, unreduced; NotInvertibleError if M - I is singular."""
        eye = _identity_mat(self.n)
        eye_minus = tuple(
            tuple(a - b for a, b in zip(e, row)) for e, row in zip(eye, self.matrix)
        )
        return _mat_vec(fraction_inverse(eye_minus), self.offset)


def exact_step(f: MapSpec, direction: Direction = Direction.FORWARD) -> ExactAffine:
    """The map (or its inverse) as one exact affine step."""
    if not supports_exact(f):
        raise InvalidMapError(f"map kind {f.kind.value!r} has no exact affine form")
    mat = tuple(tuple(Fraction(v) for v in row) for row in f.matrix)
    step = ExactAffine(mat, frac_vec(f.offset), f.space.value == "torus")
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
    eigenvalues.  The vectors are accurate to roughly 10^-digits, so a
    power M^k applied to them stays eigen-aligned up to lam_u^k * 10^-digits.
    """

    row_u: FracVec
    row_s: FracVec
    lam_u: float
    lam_s: float


def eigen_directions(f: MapSpec, digits: int = 60) -> EigenDirections | None:
    """Expanding/contracting directions of a 2x2 exact map, or None."""
    if not supports_exact(f) or f.n != 2:
        return None
    m = tuple(tuple(Fraction(v) for v in row) for row in f.matrix)
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    disc = tr * tr - 4 * det
    if disc <= 0:
        return None
    root = _sqrt_fraction(disc, digits)
    lam_u = (tr + root) / 2
    lam_s = (tr - root) / 2
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

    Solves (M - I) x = z - c over every integer vector z that can place x
    in [0,1)^n; the solution count equals |det(M - I)|.
    """
    if f.space.value != "torus":
        raise InvalidMapError("periodic point enumeration requires the torus")
    if period < 1:
        raise ValueError("period must be >= 1")
    step = exact_step(f, Direction.FORWARD)
    power = ExactAffine.identity(f.n, wrap=True)
    for _ in range(period):
        power = step.compose(power)
    n = f.n
    m = tuple(
        tuple(power.matrix[i][j] - (1 if i == j else 0) for j in range(n))
        for i in range(n)
    )
    try:
        inv = fraction_inverse(m)
    except NotInvertibleError:
        raise NotHyperbolicError(
            "f^period - identity is singular; fixed set is not finite"
        ) from None
    ranges = []
    for i in range(n):
        lo = -power.offset[i] + sum(min(v, 0) for v in m[i])
        hi = -power.offset[i] + sum(max(v, 0) for v in m[i])
        ranges.append(range(math.ceil(lo), math.floor(hi) + 1))

    def _each(prefix, remaining):
        if not remaining:
            yield tuple(prefix)
            return
        for z in remaining[0]:
            yield from _each(prefix + [z], remaining[1:])

    found = []
    for z in _each([], ranges):
        rhs = tuple(Fraction(zi) - ci for zi, ci in zip(z, power.offset))
        x = _mat_vec(inv, rhs)
        if all(0 <= xi < 1 for xi in x):
            found.append(x)
    return sorted(set(found))


def minimal_period(f: MapSpec, x: FracVec, period: int) -> int:
    """Smallest q >= 1 dividing period with f^q(x) = x exactly."""
    step = exact_step(f, Direction.FORWARD)
    for q in range(1, period + 1):
        if period % q:
            continue
        y = x
        for _ in range(q):
            y = step.apply(y)
        if y == x:
            return q
    raise ValueError("x is not periodic with the stated period")
