"""Dyadic subdivisions of the unit cube and torus, and exact box geometry.

The chart is fixed to the identity on [0,1]^n; the torus is the same cube
with opposite faces glued.  All grid endpoints are dyadic rationals, hence
exactly representable in binary floating point: grid geometry is exact and
only derived quantities (square roots, images under nonlinear maps) carry
outward rounding.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
import math
import reprlib

import numpy as np

from .errors import ResourceLimitError

# Hard ceiling on 2^(n*m) unless the caller raises it explicitly.
DEFAULT_CUBE_BUDGET = 1 << 20

_EQ_TOL = 1e-12


class Space(Enum):
    CUBE = "cube"
    TORUS = "torus"


# What a read value's JSON type may be, by the type it is read as: true is
# not a number, "0.5" not a number, 2.7 not an integer.  A Fraction or a
# Space is read from a string that must parse as one.
_JSON_TYPES = {
    float: ({int, float}, "number"),
    int: ({int}, "integer"),
    str: ({str}, "string"),
    bool: ({bool}, "bool"),
    list: ({list}, "list"),
    dict: ({dict}, "object"),
    Fraction: ({str}, "string of a rational"),
    Space: ({str}, "string 'cube' or 'torus'"),
}


def json_value(key: str, value, kind: type = float, optional: bool = False):
    """``value`` read as ``kind``, never coerced (None passes when
    ``optional``); a mistyped value raises ValueError naming its key.
    Every value of every JSON input is read here or in ``json_values``."""
    types, name = _JSON_TYPES[kind]
    if value is None and optional:
        return None
    try:
        if type(value) in types:
            return value if type(value) is kind else kind(value)
    except (ValueError, ArithmeticError):  # "1/0" is not a rational
        pass
    raise ValueError(f"{key} must be a JSON {name}, not {reprlib.repr(value)}")


def json_values(key: str, values, kind: type = float, length: int | None = None) -> tuple:
    """A JSON list read as ``kind`` items (``length`` of them when given).
    A list whose items all are ``kind`` already passes by its set of item
    types; any other is read item by item, to convert or to name the bad
    item.  ValueError names the key."""
    if type(values) is not list or length not in (None, len(values)):
        size = "" if length is None else f" of {length}"
        raise ValueError(f"{key} must be a JSON list{size}, not {reprlib.repr(values)}")
    if set(map(type, values)) <= {kind}:
        return tuple(values)
    return tuple(json_value(key, v, kind) for v in values)


def json_pairs(key: str, values) -> tuple:
    """A JSON list of integer pairs [i, j], flattened to (i0, j0, i1, j1, ...)
    and checked as whole lists, like ``json_values``."""
    rows = json_values(key, values, list)
    if set(map(len, rows)) <= {2}:
        return json_values(key, list(chain.from_iterable(rows)), int)
    raise ValueError(f"{key} must be a JSON list of [i, j] pairs, not {reprlib.repr(values)}")


def check_bounds(lo: np.ndarray, hi: np.ndarray, space: Space) -> None:
    """The bounds checks of every Box, on stacked (k, n) bounds at once:
    ValueError unless lo <= hi on every axis, and the ranges lie in [0, 1]
    on the cube, or have width <= 1 within [-1, 2] on the torus."""
    unordered = ~(lo <= hi)  # NaN bounds included
    if unordered.any():
        at = int(np.argmax(unordered))
        raise ValueError(f"box requires lo <= hi, got {float(lo.flat[at])} > {float(hi.flat[at])}")
    if space is Space.TORUS:
        if np.any((lo < -1.0 - _EQ_TOL) | (hi > 2.0 + _EQ_TOL) | (hi - lo > 1.0 + _EQ_TOL)):
            raise ValueError("torus box must have width <= 1 with coordinates in [-1, 2]")
    elif np.any((lo < -_EQ_TOL) | (hi > 1.0 + _EQ_TOL)):
        raise ValueError("box coordinates must lie within [0, 1]")


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box with canonical coordinates in [0,1]^n.

    Torus boxes are stored unwrapped (lo <= hi) and may sit on a lift one
    unit outside canonical range when a small box straddles a glued face;
    wrap-aware operations reduce modulo 1.  Cube boxes must stay in range.
    """

    lo: tuple
    hi: tuple
    space: Space

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be equal-length, nonempty")
        check_bounds(np.array([lo]), np.array([hi]), self.space)

    @property
    def n(self):
        return len(self.lo)

    @property
    def lo_arr(self):
        return np.array(self.lo, dtype=float)

    @property
    def hi_arr(self):
        return np.array(self.hi, dtype=float)

    @property
    def center(self):
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def contains_point(self, p, tol=0.0):
        """Closed membership; on the torus, coordinates are compared modulo 1."""
        for a, b, x in zip(self.lo, self.hi, p):
            if self.space is Space.TORUS:
                x = x - math.floor(x)
                if not any(
                    a - tol <= x + shift <= b + tol for shift in (-1.0, 0.0, 1.0)
                ):
                    return False
            else:
                if not (a - tol <= x <= b + tol):
                    return False
        return True


@dataclass(frozen=True)
class Subdivision:
    """The full order-m dyadic subdivision of the n-cube or n-torus.

    A cube is named by its flat index: the row-major position of its
    multi-index (k_1, ..., k_n), the cube being the product of the
    [k_d/2^m, (k_d+1)/2^m].  This class owns the conversions between the two.
    """

    n: int
    m: int
    space: Space

    @property
    def side(self):
        return 1 << self.m

    @property
    def count(self):
        return self.side ** self.n

    @property
    def cube_width(self):
        return 1.0 / self.side

    def flat_index(self, multi):
        if len(multi) != self.n:
            raise ValueError(f"multi-index length {len(multi)} != dimension {self.n}")
        flat = 0
        for k in multi:
            if not 0 <= k < self.side:
                raise ValueError(f"multi-index entry {k} out of range")
            flat = flat * self.side + int(k)
        return flat

    def multi_index(self, flat):
        if not 0 <= flat < self.count:
            raise ValueError(f"flat index {flat} out of range")
        out = []
        for _ in range(self.n):
            out.append(flat % self.side)
            flat //= self.side
        return tuple(reversed(out))

    def multi_indices(self):
        """(n, count) array of every cube's multi-index, in flat-index order:
        coordinate-major, one row per axis."""
        return np.array(np.unravel_index(np.arange(self.count), (self.side,) * self.n))

    def flat_indices(self, multis):
        """Flat index of every multi-index of the coordinate-major (n, ...)
        integer array ``multis``, each entry in [0, side); the inverse of
        ``multi_indices``."""
        multis = np.asarray(multis)
        flat = multis[0]
        for axis in range(1, self.n):
            flat = flat * self.side + multis[axis]
        return flat

    def box(self, flat):
        """The closed cube with this flat index, bounds exact dyadics."""
        scale = float(self.side)
        multi = self.multi_index(flat)
        lo = tuple(k / scale for k in multi)
        hi = tuple((k + 1) / scale for k in multi)
        return Box(lo, hi, self.space)

    def to_json(self):
        return {"n": self.n, "m": self.m, "space": self.space.value, "count": self.count}


def make_subdivision(n, m, space, budget=DEFAULT_CUBE_BUDGET):
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    count = (1 << m) ** n
    if count > budget:
        raise ResourceLimitError(
            f"subdivision would hold {count} cubes, over the budget of {budget}"
        )
    return Subdivision(n=n, m=m, space=space)


def cubes_of_points(subdivision, points):
    """Flat index of the cube containing each row of a (k, n) batch.

    A point on grid hyperplanes gets the smallest index of the cubes
    whose closures hold it: per axis the lower neighbor, and on the torus
    cube 0 for the hyperplane where 0 and 1 meet.
    """
    side = subdivision.side
    x = np.asarray(points, dtype=float)
    if subdivision.space is Space.TORUS:
        x = x - np.floor(x)
    t = x * side  # exact: side is a power of two
    j = np.floor(t)
    k = np.where(t == j, j - 1, j)
    if subdivision.space is Space.TORUS:
        k[(t == j) & (j % side == 0)] = 0
    return subdivision.flat_indices(np.clip(k, 0, side - 1).astype(int).T)


def chi(subdivision):
    """Largest cube diameter: the mesh of the subdivision.

    On the torus an axis contributes at most the wrapped half-circumference.
    """
    per_axis = subdivision.cube_width
    if subdivision.space is Space.TORUS:
        per_axis = min(per_axis, 0.5)
    return math.sqrt(subdivision.n) * per_axis


def space_diameter(n, space):
    if space is Space.TORUS:
        return math.sqrt(n) * 0.5
    return math.sqrt(n)
