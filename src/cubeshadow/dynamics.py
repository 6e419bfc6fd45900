"""Builtin map family: pointwise, inverse, and rigorous box-enclosure evaluation.

Layout: the batch kernels work coordinate-major.  A batch of k points or
boxes is held as (n, k) arrays, one contiguous row per coordinate, and
the map's constants as (n, 1) columns, so every numpy loop runs over the
k points and none over the n coordinates: with n = 2, a broadcast or a
reduction along the coordinate axis of a (k, n) C-order array runs an
inner loop of length 2, which costs more than the arithmetic.  The public
evaluators keep their (k, n) and (n,) shapes; they transpose on the way
in and hand back the transpose of the (n, k) result, which is free, so a
(k, n) batch that is the transpose of an (n, k) array goes through
without a copy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._intervals import NUDGE_ULPS, nudge_down, nudge_up, sin_range, widen
from .errors import InvalidMapError, NotInvertibleError
from .geometry import Space

TWO_PI = 2.0 * math.pi


class MapKind(str, Enum):
    IDENTITY = "identity"
    TRANSLATION = "translation"
    TORAL = "toral"
    AFFINE = "affine"
    STANDARD = "standard"
    PERTURBED = "perturbed"


class Direction(str, Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


@dataclass(frozen=True)
class MapSpec:
    """Immutable description of one builtin map f(x) = A x + b + r(x).

    Parameter fields are stored as tuples so specs hash and compare by value;
    every kind carries its matrix A and offset b (zero when absent), and the
    evaluators read the float arrays derived once in ``map_parts``.
    """

    kind: MapKind
    n: int
    space: Space
    matrix: tuple[tuple[float, ...], ...]
    offset: tuple[float, ...]
    inverse_matrix: tuple[tuple[float, ...], ...] | None = None
    kappa: float = 0.0
    eta: float = 0.0
    freq: int = 1
    descriptor: str = ""

    @property
    def invertible(self) -> bool:
        return self.inverse_matrix is not None

    @property
    def matrix_arr(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    @property
    def offset_arr(self) -> np.ndarray:
        return np.array(self.offset, dtype=float)

    @cached_property
    def _parts(self) -> dict[Direction, MapParts]:
        return _derive_parts(self)

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "kind": self.kind.value,
            "n": self.n,
            "space": self.space.value,
            "invertible": self.invertible,
        }


def _int_det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * head * _int_det(minor)
    return total


def adjugate(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """adj(m) and det(m) of an integer matrix, so that m^-1 = adj(m) / det(m)."""
    n = len(m)
    if n == 1:
        return ((1,),), m[0][0]

    def minor(i: int, j: int):
        return [list(r[:j]) + list(r[j + 1:]) for k, r in enumerate(m) if k != i]

    adj = tuple(
        tuple((-1) ** (i + j) * _int_det(minor(j, i)) for j in range(n)) for i in range(n)
    )
    return adj, sum(a * b for a, b in zip(m[0], (row[0] for row in adj)))


def _as_int_matrix(matrix) -> list[list[int]]:
    rows = []
    for row in matrix:
        ints = []
        for v in row:
            if float(v) != int(v):
                raise InvalidMapError(f"matrix entry {v!r} is not an integer")
            ints.append(int(v))
        rows.append(ints)
    if any(len(r) != len(rows) for r in rows):
        raise InvalidMapError("matrix is not square")
    return rows


def _freeze(matrix) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in matrix)


def _eye(n: int) -> tuple[tuple[float, ...], ...]:
    return _freeze(np.eye(n))


def identity_map(n: int = 2, space: Space = Space.TORUS) -> MapSpec:
    return MapSpec(
        kind=MapKind.IDENTITY,
        n=n,
        space=space,
        matrix=_eye(n),
        offset=(0.0,) * n,
        inverse_matrix=_eye(n),
        descriptor=f"identity n={n}",
    )


def translation_map(vector, space: Space = Space.TORUS) -> MapSpec:
    vec = tuple(float(v) for v in vector)
    return MapSpec(
        kind=MapKind.TRANSLATION,
        n=len(vec),
        space=space,
        matrix=_eye(len(vec)),
        offset=vec,
        inverse_matrix=_eye(len(vec)),
        descriptor="translation " + _fmt_vector(vec),
    )


def toral_map(matrix, space: Space = Space.TORUS) -> MapSpec:
    rows = _as_int_matrix(matrix)
    n = len(rows)
    adj, det = adjugate(rows)
    if det not in (1, -1):
        raise InvalidMapError(f"toral matrix must have determinant +-1, got {det}")
    inv = [[det * v for v in row] for row in adj]  # adj(A) / det, exactly
    return MapSpec(
        kind=MapKind.TORAL,
        n=n,
        space=space,
        matrix=_freeze(rows),
        offset=(0.0,) * n,
        inverse_matrix=_freeze(inv),
        descriptor="toral " + _fmt_matrix(rows),
    )


def affine_map(matrix, offset=None, space: Space = Space.CUBE) -> MapSpec:
    mat = np.array(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidMapError("affine matrix must be square")
    n = mat.shape[0]
    off = tuple(float(v) for v in (offset if offset is not None else np.zeros(n)))
    if len(off) != n:
        raise InvalidMapError("affine offset dimension mismatch")
    det = np.linalg.det(mat)
    inv = _freeze(np.linalg.inv(mat)) if abs(det) > 1e-12 else None
    desc = "affine " + _fmt_matrix(mat) + " offset=" + _fmt_vector(off)
    return MapSpec(
        kind=MapKind.AFFINE,
        n=n,
        space=space,
        matrix=_freeze(mat),
        offset=off,
        inverse_matrix=inv,
        descriptor=desc,
    )


def standard_map(kappa: float, space: Space = Space.TORUS) -> MapSpec:
    return MapSpec(
        kind=MapKind.STANDARD,
        n=2,
        space=space,
        matrix=((1.0, 1.0), (0.0, 1.0)),
        offset=(0.0, 0.0),
        inverse_matrix=((1.0, -1.0), (0.0, 1.0)),
        kappa=float(kappa),
        descriptor=f"standard K={float(kappa)!r}",
    )


def perturbed_map(
    matrix, eta: float, freq: int = 1, space: Space = Space.TORUS
) -> MapSpec:
    rows = _as_int_matrix(matrix)
    det = _int_det(rows)
    if det not in (1, -1):
        raise InvalidMapError(f"perturbed base matrix must have determinant +-1, got {det}")
    if eta < 0:
        raise InvalidMapError("perturbation amplitude must be >= 0")
    if int(freq) != freq or freq < 1:
        raise InvalidMapError("perturbation frequency must be a positive integer")
    desc = f"perturbed {_fmt_matrix(rows)} eta={float(eta)!r} freq={int(freq)}"
    return MapSpec(
        kind=MapKind.PERTURBED,
        n=len(rows),
        space=space,
        matrix=_freeze(rows),
        offset=(0.0,) * len(rows),
        eta=float(eta),
        freq=int(freq),
        descriptor=desc,
    )


def _fmt_vector(vec) -> str:
    return "[" + ",".join(repr(float(v)) for v in vec) + "]"


def _fmt_matrix(mat) -> str:
    return "[" + ",".join(_fmt_vector(row) for row in mat) + "]"


def _merge_brackets(tokens: list[str]) -> list[str]:
    """Re-join tokens so bracketed literals survive whitespace splitting."""
    merged: list[str] = []
    depth = 0
    for tok in tokens:
        if depth > 0:
            merged[-1] += tok
        else:
            merged.append(tok)
        depth += tok.count("[") - tok.count("]")
        if depth < 0:
            raise InvalidMapError("unbalanced brackets in map descriptor")
    if depth != 0:
        raise InvalidMapError("unbalanced brackets in map descriptor")
    return merged


def _parse_literal(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidMapError(f"cannot parse {text!r}: {exc}") from None


def builtin_map(descriptor: str, space: Space | str = Space.TORUS) -> MapSpec:
    """Parse a one-line map descriptor: kind, then whitespace-separated parameters.

    Grammar:
        identity [n=<int>]
        translation [v1,...,vn]
        toral [[a11,...],...]
        affine [[a11,...],...] [offset=[b1,...,bn]]
        standard K=<real>
        perturbed [[a11,...],...] eta=<real> freq=<int>
    """
    space = Space(space)
    tokens = _merge_brackets(descriptor.split())
    if not tokens:
        raise InvalidMapError("empty map descriptor")
    kind, args = tokens[0].lower(), tokens[1:]
    positional = [a for a in args if "=" not in a]
    keyword = {}
    for a in args:
        if "=" in a:
            key, _, value = a.partition("=")
            keyword[key.lower()] = value
    unknown = object()

    def kw(name: str, default=unknown):
        if name in keyword:
            return _parse_literal(keyword.pop(name))
        if default is unknown:
            raise InvalidMapError(f"map kind {kind!r} requires {name}=")
        return default

    def pos(label: str):
        if not positional:
            raise InvalidMapError(f"map kind {kind!r} requires a {label} argument")
        return _parse_literal(positional.pop(0))

    if kind == "identity":
        built = identity_map(n=int(kw("n", 2)), space=space)
    elif kind == "translation":
        built = translation_map(pos("vector"), space=space)
    elif kind == "toral":
        built = toral_map(pos("matrix"), space=space)
    elif kind == "affine":
        matrix = pos("matrix")
        built = affine_map(matrix, kw("offset", None), space=space)
    elif kind == "standard":
        built = standard_map(float(kw("k")), space=space)
    elif kind == "perturbed":
        matrix = pos("matrix")
        built = perturbed_map(matrix, float(kw("eta")), int(kw("freq", 1)), space=space)
    else:
        raise InvalidMapError(f"unknown map kind {kind!r}")
    if positional:
        raise InvalidMapError(f"unexpected arguments: {positional}")
    if keyword:
        raise InvalidMapError(f"unknown parameters: {sorted(keyword)}")
    return built


@dataclass(frozen=True)
class SineResidual:
    """The nonlinear term r(v)_d = coef_d * sin(angular * v[src_d]).

    ``slope`` bounds every partial derivative of every component of r;
    ``ulps`` outward nudges are applied to each term of its range.  The
    sine's argument is rounded to nearest, so it is nudged one ulp outward.
    """

    coef: tuple[float, ...]
    src: tuple[int, ...]
    angular: float
    slope: float
    ulps: int

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The coefficients as an (n, 1) column, the source coordinates, and
        the columns of the positive and of the zero coefficients."""
        coef = np.array(self.coef)[:, None]
        return coef, np.array(self.src), coef >= 0.0, coef == 0.0

    def at(self, v: np.ndarray) -> np.ndarray:
        """r at every point of a coordinate-major (n, k) batch."""
        coef, src, _, _ = self._columns
        return coef * np.sin(self.angular * v[src])

    def over(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise range of r over every box of coordinate-major (n, k) bounds."""
        coef, src, up, zero = self._columns
        s_lo, s_hi = sin_range(
            nudge_down(self.angular * lo[src], 1),
            nudge_up(self.angular * hi[src], 1),
        )
        r_lo, r_hi = widen(
            np.where(up, coef * s_lo, coef * s_hi),
            np.where(up, coef * s_hi, coef * s_lo),
            self.ulps,
        )
        return np.where(zero, 0.0, r_lo), np.where(zero, 0.0, r_hi)


@dataclass(frozen=True, eq=False)
class MapParts:
    """One direction of a map as A x + b + r(.), in read-only arrays.

    The forward residual reads the input x; the inverse residual reads the
    affine image u = A^-1 (y - b), so the inverse is u + r(u).  ``pos`` and
    ``neg`` split A by sign for interval products.
    """

    a: np.ndarray
    b: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    residual: SineResidual | None

    @cached_property
    def columns(self) -> tuple:
        """The (n, 1) columns of a, of pos and of neg, and b as an (n, 1)
        column: the forms the coordinate-major kernels broadcast."""
        a, pos, neg = (
            tuple(m[:, j:j + 1] for j in range(m.shape[1])) for m in (self.a, self.pos, self.neg)
        )
        return a, pos, neg, self.b[:, None]


def _parts(a, b, residual: SineResidual | None) -> MapParts:
    arrays = [np.array(a, dtype=float), np.array(b, dtype=float)]
    arrays += [np.clip(arrays[0], 0.0, None), np.clip(arrays[0], None, 0.0)]
    for arr in arrays:
        arr.flags.writeable = False
    return MapParts(*arrays, residual)


def _derive_parts(f: MapSpec) -> dict[Direction, MapParts]:
    forward_r = inverse_r = None
    if f.kind is MapKind.STANDARD:
        # x' = x + y + s(x), y' = y + s(x); the inverse is u = (x - y, y)
        # followed by y -= s(u_0).
        c = f.kappa / TWO_PI
        slope = abs(f.kappa)
        forward_r = SineResidual((c, c), (0, 0), TWO_PI, slope, NUDGE_ULPS)
        inverse_r = SineResidual((0.0, -c), (0, 0), TWO_PI, slope, NUDGE_ULPS)
    elif f.kind is MapKind.PERTURBED:
        # Component d is perturbed by the cyclically previous coordinate.
        # Its range goes unnudged into the final widening of eval_box, as
        # the perturbed maps' stored enclosures always have.
        forward_r = SineResidual(
            (f.eta,) * f.n,
            tuple((d - 1) % f.n for d in range(f.n)),
            TWO_PI * f.freq,
            abs(f.eta) * TWO_PI * f.freq,
            0,
        )
    parts = {Direction.FORWARD: _parts(f.matrix, f.offset, forward_r)}
    if f.invertible:
        inv = np.array(f.inverse_matrix, dtype=float)
        parts[Direction.INVERSE] = _parts(inv, -(inv @ f.offset_arr), inverse_r)
    return parts


def map_parts(f: MapSpec, direction: Direction = Direction.FORWARD) -> MapParts:
    """The cached parts of f (or of its inverse)."""
    if direction is Direction.INVERSE and not f.invertible:
        raise NotInvertibleError(f"{f.descriptor or f.kind.value} has no inverse")
    return f._parts[direction]


def wrap_points(space: Space, q: np.ndarray) -> np.ndarray:
    """Reduce a batch mod 1 into [0, 1) on the torus; the cube is left alone."""
    if space is Space.TORUS:
        q = q - np.floor(q)
        q[q == 1.0] = 0.0
    return q


def _apply_matrix(cols: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """m x for every point of a coordinate-major (n, k) batch x, from the
    (n, 1) columns of m (``MapParts.columns``), as an (n, k) array.

    The product is summed column by column, each column scaling one
    coordinate row, rather than by a matrix product, so the bits of each
    point do not depend on how many points are evaluated.
    """
    y = cols[0] * x[0]
    for j in range(1, len(cols)):
        y = y + cols[j] * x[j]
    return y


def _lift(parts: MapParts, direction: Direction, x: np.ndarray) -> np.ndarray:
    """A x + b + r(.) at every point of a coordinate-major (n, k) batch."""
    a, _, _, b = parts.columns
    y = _apply_matrix(a, x) + b
    if parts.residual is not None:
        y = y + parts.residual.at(y if direction is Direction.INVERSE else x)
    return y


def lift_points(f: MapSpec, direction: Direction, points) -> np.ndarray:
    """Images of a (k, n) batch under f or its inverse, not reduced mod 1.

    The result is the transpose of a coordinate-major (n, k) array.
    """
    parts = map_parts(f, direction)
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != f.n:
        raise InvalidMapError(f"batch has shape {x.shape}, expected (k, {f.n})")
    return _lift(parts, direction, x.T).T


def eval_point(f: MapSpec, direction: Direction, point) -> np.ndarray:
    """Apply f (or its inverse) to one point, reduced mod 1 on the torus."""
    p = np.asarray(point, dtype=float)
    if p.shape != (f.n,):
        raise InvalidMapError(f"point has shape {p.shape}, map expects ({f.n},)")
    return wrap_points(f.space, _lift(map_parts(f, direction), direction, p[:, None]))[:, 0]


def eval_points(f: MapSpec, points: np.ndarray) -> np.ndarray:
    """Forward-evaluate a (k, n) batch of points, reduced mod 1 on the torus."""
    return wrap_points(f.space, lift_points(f, Direction.FORWARD, points))


def _affine_box(parts: MapParts, lo: np.ndarray, hi: np.ndarray):
    """Outward enclosure of A [lo, hi] + b for coordinate-major (n, k) bounds."""
    _, pos, neg, b = parts.columns
    out_lo, out_hi = widen(
        _apply_matrix(pos, lo) + _apply_matrix(neg, hi),
        _apply_matrix(pos, hi) + _apply_matrix(neg, lo),
    )
    return out_lo + b, out_hi + b


def _residual_box(parts: MapParts, direction: Direction, lo, hi):
    """Range of r over the boxes [lo, hi], coordinate-major; the inverse's r
    reads the affine image.

    Only the shear has an inverse residual, and its b is zero, so the
    image it reads is outward-rounded.
    """
    if direction is Direction.INVERSE:
        lo, hi = _affine_box(parts, lo, hi)
    return parts.residual.over(lo, hi)


def _boxes(f: MapSpec, lo, hi, kernel) -> tuple[np.ndarray, np.ndarray]:
    """``kernel`` on the coordinate-major transposes of (k, n) or (n,)
    bounds, its (n, k) results handed back in the bounds' shape."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for x in (lo, hi):
        if x.ndim not in (1, 2) or x.shape[-1] != f.n:
            raise InvalidMapError(
                f"bounds have shape {x.shape}, expected (k, {f.n}) or ({f.n},)"
            )
    out_lo, out_hi = kernel(lo.reshape(-1, f.n).T, hi.reshape(-1, f.n).T)
    if lo.ndim == hi.ndim == 1:
        return out_lo[:, 0], out_hi[:, 0]
    return out_lo.T, out_hi.T


def eval_box(
    f: MapSpec, direction: Direction, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rigorous enclosure of f over lifted boxes [lo, hi], un-wrapped.

    ``lo`` and ``hi`` hold one box per row of a (k, n) batch, or a single
    (n,) box; each may be any lift, wider than one period included.  A
    row's bounds do not depend on the other rows.  Torus wrapping is left
    to the caller so the enclosure itself stays tight.  Batch results
    are transposes of coordinate-major (n, k) arrays.
    """
    parts = map_parts(f, direction)

    def enclose(lo, hi):
        out_lo, out_hi = _affine_box(parts, lo, hi)
        if parts.residual is not None:
            r_lo, r_hi = _residual_box(parts, direction, lo, hi)
            out_lo, out_hi = out_lo + r_lo, out_hi + r_hi
        return widen(out_lo, out_hi)

    return _boxes(f, lo, hi, enclose)


def residual_range(
    f: MapSpec, direction: Direction, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise bounds on f(x) - (Ax + b) over the box [lo, hi].

    Zero for the exactly-affine kinds; a sine range for the shear and
    perturbation terms.
    """
    parts = map_parts(f, direction)
    if parts.residual is None:
        return np.zeros(f.n), np.zeros(f.n)
    return _boxes(f, lo, hi, lambda lo, hi: _residual_box(parts, direction, lo, hi))


def is_exactly_affine(f: MapSpec) -> bool:
    """True when the float evaluation of f is an exact affine map of its inputs."""
    return map_parts(f).residual is None


def jacobian(f: MapSpec, point, step: float = 1e-6) -> np.ndarray:
    """Derivative matrix at a point: exact for affine kinds, central differences else.

    Differences are taken on the un-wrapped evaluation, so points near the
    torus seam are safe.
    """
    parts = map_parts(f)
    if parts.residual is None:
        return parts.a
    e = step * np.eye(f.n)
    p = np.asarray(point, dtype=float)
    images = lift_points(f, Direction.FORWARD, np.concatenate([p + e, p - e]))
    return (images[: f.n] - images[f.n :]).T / (2 * step)
