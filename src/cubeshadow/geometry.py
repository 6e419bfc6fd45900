"""Dyadic subdivisions of the unit cube and torus, and exact box geometry.

The chart is fixed to the identity on [0,1]^n; the torus is the same cube
with opposite faces glued.  All grid endpoints are dyadic rationals, hence
exactly representable in binary floating point: grid geometry is exact and
only derived quantities (square roots, images under nonlinear maps) carry
outward rounding.
"""

from dataclasses import dataclass
from enum import Enum
import itertools
import math

import numpy as np

from ._intervals import nudge_down
from .errors import ResourceLimitError

# Hard ceiling on 2^(n*m) unless the caller raises it explicitly.
DEFAULT_CUBE_BUDGET = 1 << 20

_EQ_TOL = 1e-12


class Space(Enum):
    CUBE = "cube"
    TORUS = "torus"


def parse_space(value) -> Space:
    if isinstance(value, Space):
        return value
    try:
        return Space(str(value).strip().lower())
    except ValueError:
        raise ValueError(f"unknown space {value!r}; expected 'cube' or 'torus'") from None


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box with canonical coordinates in [0,1]^n.

    Torus boxes are stored unwrapped (lo <= hi) and may sit on a lift one
    unit outside canonical range when a small box straddles a glued face;
    wrap-aware operations reduce modulo 1.  Cube boxes must stay in range.
    Enclosures spanning a glued face are alternatively represented as
    several canonical boxes via split_lift().
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
        for a, b in zip(lo, hi):
            if not (a <= b):
                raise ValueError(f"box requires lo <= hi, got {a} > {b}")
            if self.space is Space.TORUS:
                if a < -1.0 - _EQ_TOL or b > 2.0 + _EQ_TOL or b - a > 1.0 + _EQ_TOL:
                    raise ValueError(
                        "torus box must have width <= 1 with coordinates in [-1, 2]"
                    )
            elif a < -_EQ_TOL or b > 1.0 + _EQ_TOL:
                raise ValueError("box coordinates must lie within [0, 1]")

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
    def widths(self):
        return tuple(b - a for a, b in zip(self.lo, self.hi))

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

    def interior_clearance(self, p):
        """Distance from p to the box's boundary; negative means outside.

        Measured per axis in the unwrapped chart (adequate for the small
        boxes this toolkit certifies on)."""
        worst = math.inf
        for a, b, x in zip(self.lo, self.hi, p):
            if self.space is Space.TORUS:
                x = x - math.floor(x)
                best = max(
                    min(x + shift - a, b - x - shift) for shift in (-1.0, 0.0, 1.0)
                )
                worst = min(worst, best)
            else:
                worst = min(worst, x - a, b - x)
        return worst


@dataclass(frozen=True)
class Lift:
    """Un-wrapped image enclosure: bounds may leave [0,1]^n.

    Produced by enclosure evaluation; callers reduce it to canonical boxes
    with split_lift()."""

    lo: tuple
    hi: tuple
    space: Space

    @property
    def n(self):
        return len(self.lo)

    @property
    def lo_arr(self):
        return np.array(self.lo, dtype=float)

    @property
    def hi_arr(self):
        return np.array(self.hi, dtype=float)


def split_lift(lift):
    """Reduce a Lift to canonical boxes: at most 2 pieces per axis, 2^n total.

    On the cube the lift is clipped to [0,1]^n (sound for endomorphisms: the
    image lies in the space, so intersecting the enclosure with it loses no
    image point).  On the torus each axis is reduced modulo 1 and split where
    it crosses a glued face; an axis spanning width >= 1 becomes [0,1].
    """
    per_axis = []
    for a, b in zip(lift.lo, lift.hi):
        if lift.space is Space.CUBE:
            per_axis.append([(min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0))])
            continue
        if b - a >= 1.0:
            per_axis.append([(0.0, 1.0)])
            continue
        base = math.floor(a)
        lo = a - base
        hi = b - base
        if hi <= 1.0:
            per_axis.append([(lo, hi)])
        else:
            per_axis.append([(lo, 1.0), (0.0, hi - 1.0)])
    boxes = []
    for combo in itertools.product(*per_axis):
        lo = tuple(c[0] for c in combo)
        hi = tuple(c[1] for c in combo)
        boxes.append(Box(lo, hi, lift.space))
    return boxes


@dataclass(frozen=True)
class DyadicCube:
    """Grid cube of order m: the product of [k_d/2^m, (k_d+1)/2^m]."""

    m: int
    index: tuple

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(int(k) for k in self.index))
        side = 1 << self.m
        for k in self.index:
            if not 0 <= k < side:
                raise ValueError(f"index {k} out of range for order {self.m}")

    @property
    def n(self):
        return len(self.index)

    def box(self, space):
        scale = float(1 << self.m)
        lo = tuple(k / scale for k in self.index)
        hi = tuple((k + 1) / scale for k in self.index)
        return Box(lo, hi, space)


@dataclass(frozen=True)
class Subdivision:
    """The full order-m dyadic subdivision of the n-cube or n-torus.

    Cubes are materialized on demand from their indices; only counters and
    conversion helpers are stored.
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

    def cube(self, key):
        """Cube by flat index or multi-index."""
        if isinstance(key, (int, np.integer)):
            return DyadicCube(self.m, self.multi_index(int(key)))
        return DyadicCube(self.m, tuple(key))

    def box(self, key):
        return self.cube(key).box(self.space)

    def cubes(self):
        for flat in range(self.count):
            yield self.cube(flat)

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


def _axis_cube_index(x, m, space):
    """Index of the cube containing coordinate x, lowest index on boundaries."""
    side = 1 << m
    if space is Space.TORUS:
        x = x - math.floor(x)
    t = x * side  # exact: side is a power of two
    j = math.floor(t)
    if t == j:
        # x sits on a grid hyperplane: both neighbors contain it; take the
        # lexicographically smaller index (wrapping on the torus).
        if space is Space.TORUS:
            return min((j - 1) % side, j % side)
        cands = [c for c in (j - 1, j) if 0 <= c < side]
        return min(cands)
    return min(max(int(j), 0), side - 1)


def cube_of_point(subdivision, p):
    """The cube containing p; ties broken toward the smallest multi-index."""
    idx = tuple(
        _axis_cube_index(float(x), subdivision.m, subdivision.space) for x in p
    )
    return DyadicCube(subdivision.m, idx)


def cubes_containing_point(subdivision, p):
    """All cubes whose closure contains p (up to 2^n on grid boundaries)."""
    side = subdivision.side
    per_axis = []
    for x in p:
        x = float(x)
        if subdivision.space is Space.TORUS:
            x = x - math.floor(x)
        t = x * side
        j = math.floor(t)
        if t == j:
            if subdivision.space is Space.TORUS:
                per_axis.append(sorted({(j - 1) % side, j % side}))
            else:
                per_axis.append([c for c in (j - 1, j) if 0 <= c < side])
        else:
            per_axis.append([min(max(int(j), 0), side - 1)])
    return [DyadicCube(subdivision.m, combo) for combo in itertools.product(*per_axis)]


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


def _axis_gap(alo, ahi, blo, bhi):
    return max(0.0, blo - ahi, alo - bhi)


def set_distance_lb(a, b):
    """Certified lower bound on the distance between two boxes.

    Exact per-axis gaps (wrapped on the torus) combined in the Euclidean
    norm; the result is nudged down a couple of ULPs so it never exceeds the
    true infimum.  Returns 0 exactly when the boxes may intersect.
    """
    if a.space is not b.space or a.n != b.n:
        raise ValueError("boxes must share a space and dimension")
    total = 0.0
    for d in range(a.n):
        if a.space is Space.TORUS:
            g = min(
                _axis_gap(a.lo[d] + s, a.hi[d] + s, b.lo[d], b.hi[d])
                for s in (-1.0, 0.0, 1.0)
            )
        else:
            g = _axis_gap(a.lo[d], a.hi[d], b.lo[d], b.hi[d])
        total += g * g
    if total == 0.0:
        return 0.0
    return float(nudge_down(math.sqrt(total), 2))


def point_distance(p, q, space):
    """Euclidean distance, per-axis wrapped on the torus."""
    total = 0.0
    for x, y in zip(p, q):
        d = abs(float(x) - float(y))
        if space is Space.TORUS:
            d = d - math.floor(d)
            d = min(d, 1.0 - d)
        total += d * d
    return math.sqrt(total)


def point_box_distance_lb(p, b):
    """Lower bound on dist(p, box): per-axis gaps like set_distance_lb."""
    coords = []
    for x in p:
        x = float(x)
        if b.space is Space.TORUS:
            x = x - math.floor(x)
        coords.append(min(max(x, 0.0), 1.0))
    degenerate = Box(tuple(coords), tuple(coords), b.space)
    return set_distance_lb(degenerate, b)
