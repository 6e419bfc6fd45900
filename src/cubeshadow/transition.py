"""Cube transition graph induced by a map on a dyadic subdivision.

Edges are three-valued: an interval enclosure can prove emptiness with a
positive gap, a checked witness point proves nonemptiness, and everything
else stays Uncertain rather than being silently rounded either way.

Layout: every batch on the graph path is coordinate-major, with the
coordinate as the first axis: cube bounds, sample grids, cells, witness
points and images are (n, ...) arrays, and per-coordinate data gathers
along the later axes.  Numpy's inner loops then run over the cubes, cells
or samples, never over the n coordinates, which for n = 2 would cost more
than the arithmetic.  Reductions over the coordinates are explicit
``np.minimum`` and ``+`` chains from coordinate 0 up.  The maps are
evaluated through the (k, n) public evaluators on transposed views, which
``dynamics`` takes and returns without a copy.
"""

from __future__ import annotations

import math
from collections.abc import Callable, KeysView, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from ._intervals import nudge_down
from .dynamics import Direction, MapKind, MapSpec, eval_box, eval_points
from .errors import NoPathError, NotEndomorphismError, UncertainEdgesError
from .geometry import Space, Subdivision, space_diameter


# Empty pairs within this many cube widths keep their gap in ``empty_gaps``.
_NEAR_BAND = 2.0
# The minimum gap is searched to within this fraction of a cube width.
_SHARPEN_REL_TOL = 2.0 ** -12
# A torus lift this close to half a turn from a box's center ties, up to
# rounding, with the lift on the other side: far more than the rounding of
# a clearance in [0, 1], far less than any gap between the two lifts.
_TIE = 2.0 ** -40


class EdgeStatus(str, Enum):
    NONEMPTY = "certified_nonempty"
    UNCERTAIN = "uncertain"
    EMPTY = "certified_empty"


@dataclass(frozen=True)
class EdgeWitness:
    """A checked point w in C_i with f(w) in C_j.

    ``clearance`` is min(distance of w to the boundary of C_i, distance of
    f(w) to the boundary of C_j); positive means the intersection provably
    has interior (for the open maps of the builtin family).
    """

    point: tuple[float, ...]
    image: tuple[float, ...]
    clearance: float

    @property
    def interior(self) -> bool:
        return self.clearance > 0.0


def code_pairs(codes: np.ndarray, count: int) -> list[tuple[int, int]]:
    """The cube pairs (i, j) of the codes i * count + j, in order."""
    i, j = np.divmod(codes, count)
    return list(zip(i.tolist(), j.tolist()))


def pair_array(codes: np.ndarray, count: int) -> np.ndarray:
    """The (k, 2) array of cube pairs [i, j] of the codes i * count + j."""
    return np.column_stack(np.divmod(codes, count))


def pair_keys(codes: np.ndarray, count: int) -> list[str]:
    """The canonical key "i,j" of each code i * count + j."""
    names = np.array(list(map(str, range(count))), dtype=object)
    i, j = np.divmod(codes, count)
    return ((names + ",")[i] + names[j]).tolist()


def _check_cubes(count: int, *indices) -> None:
    """Raise ValueError naming the first cube index outside 0..count-1."""
    flat = np.concatenate([np.ravel(k) for k in indices])
    bad = flat[(flat < 0) | (flat >= count)]
    if bad.size:
        raise ValueError(f"cube index {bad[0]} out of range")


class PairRows(Mapping):
    """Cube pair -> its row's value, over sorted codes i * count + j;
    ``value(k)`` builds row k's value on lookup, ``keys()`` is the pair set."""

    def __init__(self, codes: np.ndarray, count: int, value: Callable[[int], object] = int):
        self.codes, self.count, self._value = codes, count, value

    def __getitem__(self, pair):
        i, j = pair
        if 0 <= i < self.count and 0 <= j < self.count:
            code = i * self.count + j
            k = int(np.searchsorted(self.codes, code))
            if k < len(self.codes) and self.codes[k] == code:
                return self._value(k)
        raise KeyError(pair)

    def __iter__(self):
        return iter(code_pairs(self.codes, self.count))

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Every ordered cube pair's status, held as columns.

    CertifiedNonempty pairs are the sorted codes i * count + j in
    ``witness_codes``, with their witness ``points``, ``images`` and
    ``clearances``; Uncertain pairs are ``uncertain_codes``; every other
    pair is CertifiedEmpty.  ``index_matrix`` is the index action of a map
    that commutes with the grid translations.  ``gap_pairs`` are the sorted
    codes of the computed pairs that keep a gap, ``gaps`` their sound
    build-time gaps and ``min_empty_gap`` the build's least gap.  Counting
    or listing ``empty_gaps`` derives the near-miss codes from ``gap_pairs``
    (translated into every row for an equivariant map) in one cached read.
    No gap read searches: only ``sharpened_min_gap``, read by
    ``delta_bound``, runs ``gap_search``, which sharpens the minimum.
    """

    subdivision: Subdivision
    map_id: str
    samples_per_cube: int
    refine_depth: int
    index_matrix: np.ndarray | None
    witness_codes: np.ndarray
    points: np.ndarray
    images: np.ndarray
    clearances: np.ndarray
    uncertain_codes: np.ndarray
    gap_pairs: np.ndarray
    gaps: np.ndarray
    min_empty_gap: float
    gap_search: Callable[[], float]

    def __eq__(self, other) -> bool:
        return isinstance(other, TransitionGraph) and self.to_json() == other.to_json()

    @cached_property
    def witnesses(self) -> PairRows:
        """CertifiedNonempty pair -> its EdgeWitness, built on lookup."""
        p, q, c = self.points, self.images, self.clearances
        return PairRows(
            self.witness_codes, self.subdivision.count,
            lambda k: EdgeWitness(tuple(p[k].tolist()), tuple(q[k].tolist()), float(c[k])),
        )

    @cached_property
    def uncertain(self) -> KeysView[tuple[int, int]]:
        return PairRows(self.uncertain_codes, self.subdivision.count).keys()

    @cached_property
    def _near(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted near-miss codes and, for each, the position in
        ``gap_pairs`` of the computed pair whose gap it shares."""
        codes, rows = self.gap_pairs, np.arange(len(self.gap_pairs))
        if self.index_matrix is not None:
            codes = _translates(self.subdivision, self.index_matrix, codes).ravel()
            rows = np.repeat(rows, self.subdivision.count)
        by_code = np.argsort(codes)
        return codes[by_code], rows[by_code]

    @cached_property
    def sharpened_min_gap(self) -> float:
        """The minimum gap as ``gap_search`` sharpens it; the first read searches."""
        return self.gap_search()

    @property
    def empty_gaps(self) -> PairRows:
        """Near-miss CertifiedEmpty pair -> its build-time gap."""
        codes, rows = self._near
        return PairRows(codes, self.subdivision.count, lambda k: float(self.gaps[rows[k]]))

    def status(self, i: int, j: int) -> EdgeStatus:
        if self.certified_empty(np.array([i]), np.array([j]))[0]:
            return EdgeStatus.EMPTY
        return EdgeStatus.NONEMPTY if (i, j) in self.witnesses else EdgeStatus.UNCERTAIN

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each source cube's CertifiedNonempty targets, ascending; built once."""
        succ: dict[int, list[int]] = {}
        for i, j in self.witnesses:
            succ.setdefault(i, []).append(j)
        return {i: tuple(js) for i, js in succ.items()}

    def successors(self, i: int) -> tuple[int, ...]:
        return self._adjacency.get(i, ())

    @cached_property
    def _live_codes(self) -> np.ndarray:
        """Sorted codes i * count + j of the pairs not certified empty."""
        return np.union1d(self.witness_codes, self.uncertain_codes)

    def certified_empty(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether each pair (i[k], j[k]) is certified empty: a binary search
        of the sorted live codes (index clamped past the last) misses it."""
        _check_cubes(self.subdivision.count, i, j)
        codes = np.asarray(i) * self.subdivision.count + np.asarray(j)
        live = self._live_codes
        return live[np.minimum(np.searchsorted(live, codes), len(live) - 1)] != codes

    def class_codes(self, codes: np.ndarray) -> np.ndarray:
        """The code of each pair's translation-class representative: when
        f(x + t) = f(x) + A t (A = ``index_matrix``), pair (i, j) is the
        translate of (0, j - A i mod 2^m); otherwise its own class."""
        if self.index_matrix is None:
            return codes
        s = self.subdivision
        multis = s.multi_indices()
        i, j = np.divmod(codes, s.count)
        # & (side - 1) reduces mod the side, a power of two.
        moved = multis.take(j, axis=1) - self.index_matrix @ multis.take(i, axis=1)
        return s.flat_indices(moved & (s.side - 1))

    @property
    def nonempty_count(self) -> int:
        return len(self.witness_codes)

    @property
    def uncertain_count(self) -> int:
        return len(self.uncertain_codes)

    def to_json(self) -> dict:
        # Empty pairs are implicit: at order m there are 2^{2nm} ordered
        # pairs, almost all of them empty, so only the exceptions are listed.
        rows = zip(self.points.tolist(), self.images.tolist(), self.clearances.tolist())
        edges = [
            [i, j, EdgeStatus.NONEMPTY.value, {"witness": p, "image": q, "clearance": c}]
            for (i, j), (p, q, c) in zip(self.witnesses, rows)
        ]
        edges += [[i, j, EdgeStatus.UNCERTAIN.value, None] for i, j in self.uncertain]
        codes, rows = self._near
        near = dict(zip(pair_keys(codes, self.subdivision.count), self.gaps[rows].tolist()))
        return {
            "map_id": self.map_id,
            "n": self.subdivision.n,
            "m": self.subdivision.m,
            "space": self.subdivision.space.value,
            "samples_per_cube": self.samples_per_cube,
            "refine_depth": self.refine_depth,
            "edges": edges,
            "empty_pairs": "implicit",
            "min_empty_gap": None if math.isinf(self.min_empty_gap) else self.min_empty_gap,
            "near_empty_gaps": near,
        }

    def to_dot(self) -> str:
        return "\n".join(
            ["digraph transitions {", *(f"  {i} -> {j};" for i, j in self.witnesses), "}"]
        )


def _sample_offsets(n: int, samples_per_cube: int) -> np.ndarray:
    """Regular closed grid in [0,1]^n cube-local coordinates, corners
    included, as an (n, samples) array.

    Closed sampling matters: subdivision cubes are closed, so two cubes that
    only share boundary still intersect and their shared points are the only
    available witnesses.
    """
    if samples_per_cube == 1:
        axis = np.array([0.5])
    else:
        axis = np.linspace(0.0, 1.0, samples_per_cube)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids])


def _cube_bounds(s: Subdivision) -> tuple[np.ndarray, np.ndarray]:
    """(n, count) lower and upper corners of every cube, in flat-index order."""
    lo = s.multi_indices() * s.cube_width
    return lo, lo + s.cube_width


def _axis_gaps(lo, hi, t_lo, t_hi, space: Space) -> np.ndarray:
    """Per-axis distance between intervals [lo, hi] and [t_lo, t_hi].

    On the torus each axis takes the best of the shifts -1, 0 and 1.
    """
    gap = np.maximum(np.maximum(t_lo - hi, lo - t_hi), 0.0)
    if space is Space.TORUS:
        for shift in (-1.0, 1.0):
            moved = np.maximum(np.maximum(t_lo - (hi + shift), (lo + shift) - t_hi), 0.0)
            gap = np.minimum(gap, moved)
    return gap


def _norm_lb(gaps: np.ndarray) -> np.ndarray:
    """Euclidean norm over the first (coordinate) axis, nudged down 2 ulps
    so it stays a lower bound under rounding; exactly 0 where every axis
    gap is 0."""
    total = gaps[0] * gaps[0]
    for axis in range(1, len(gaps)):
        total = total + gaps[axis] * gaps[axis]
    return np.where(total > 0.0, nudge_down(np.sqrt(total), 2), 0.0)


def _row_windows(e_lo, e_hi, s: Subdivision) -> tuple[np.ndarray, np.ndarray]:
    """Each row's near-band window: for (n, rows) lifted enclosures
    [e_lo, e_hi], the (n, rows) first target index and index count of
    each axis.

    An axis takes the indices of the cubes within _NEAR_BAND cube widths
    of the enclosure, plus one cube of margin, so a target left out of a
    window lies more than the band away on that axis, whatever the
    rounding of its gap.  On the torus the indices run on mod the side,
    and an axis whose range would cover the side takes all of it, from 0;
    on the cube the range is clipped to the cubes.  No index repeats.
    """
    side = s.side
    reach = math.ceil(_NEAR_BAND) + 1
    if s.space is Space.CUBE:
        e_lo, e_hi = np.clip(e_lo, 0.0, 1.0), np.clip(e_hi, 0.0, 1.0)
    first = np.floor(e_lo * side) - reach
    last = np.floor(e_hi * side) + reach
    if s.space is Space.CUBE:
        first = np.maximum(first, 0.0)
        size = np.minimum(last, side - 1.0) - first + 1.0
    else:
        size = np.minimum(last - first + 1.0, side)
        first = np.where(size == side, 0.0, first % side)
    return first.astype(np.int64), size.astype(np.int64)


def _window_gaps(e_lo, e_hi, first, size, s: Subdivision) -> tuple[np.ndarray, ...]:
    """The windowed pairs of the rows of (n, rows) lifted enclosures
    [e_lo, e_hi] whose windows are ``first`` and ``size`` (as
    ``_row_windows`` gives them): each pair's row position, flat target
    and gap, row by row, the last axis running fastest.

    A pair's per-axis gaps depend only on its row and its target's index
    on the axis, so they are bounded once per (axis, row, index) and
    gathered; the gaps carry the bits of ``_lift_gaps`` on the pairs.
    """
    n, side = len(size), s.side
    per_row = size.prod(axis=0)
    row = np.repeat(np.arange(per_row.size), per_row)
    k = np.arange(row.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    index = np.empty((n, row.size), dtype=np.int64)
    for axis in range(n - 1, -1, -1):
        k, step = np.divmod(k, size[axis].take(row))
        index[axis] = (first[axis].take(row) + step) % side
    t_lo = np.arange(side) * s.cube_width  # each axis's cube bounds
    axis_gaps = _lift_gaps(e_lo[..., None], e_hi[..., None], t_lo, t_lo + s.cube_width, s.space)
    gaps = np.take_along_axis(axis_gaps.reshape(n, -1), row * side + index, axis=1)
    return row, s.flat_indices(index), _norm_lb(gaps)


def _lift_gaps(e_lo, e_hi, t_lo, t_hi, space: Space) -> np.ndarray:
    """Per-axis gap from a lifted enclosure [e_lo, e_hi] to target boxes.

    The lift is reduced onto the space one axis at a time: clipped to
    [0, 1] on the cube (sound for endomorphisms); on the torus shifted by
    floor(e_lo), split where it crosses the glued face, and the whole
    circle when it spans width >= 1.  The minimum over an axis's pieces,
    taken before the norm, equals the minimum over all product pieces,
    because rounded squares and sums are monotone.
    """
    if space is Space.CUBE:
        return _axis_gaps(np.clip(e_lo, 0.0, 1.0), np.clip(e_hi, 0.0, 1.0), t_lo, t_hi, space)
    base = np.floor(e_lo)
    lo, hi = e_lo - base, e_hi - base
    gap = _axis_gaps(lo, np.minimum(hi, 1.0), t_lo, t_hi, space)
    wrapped = _axis_gaps(0.0, hi - 1.0, t_lo, t_hi, space)
    gap = np.where(hi > 1.0, np.minimum(gap, wrapped), gap)
    return np.where(e_hi - e_lo >= 1.0, 0.0, gap)


def _image_gaps(f: MapSpec, lo: np.ndarray, hi: np.ndarray, t_lo, t_hi) -> np.ndarray:
    """Certified lower bound on dist(f(cell), target) for every cell of
    (n, k) bounds [lo, hi], from one enclosure of the batch."""
    e_lo, e_hi = eval_box(f, Direction.FORWARD, lo.T, hi.T)
    return _norm_lb(_lift_gaps(e_lo.T, e_hi.T, t_lo, t_hi, f.space))


def _center_bounds(f: MapSpec, lo: np.ndarray, hi: np.ndarray, t_lo, t_hi) -> np.ndarray:
    """Upper bound on dist(f(cell), target) for every cell of (n, k) bounds:
    the distance from the image of the cell's center to the target, plus
    1e-15."""
    x = eval_points(f, (0.5 * (lo + hi)).T).T
    if f.space is Space.TORUS:
        x = x - np.floor(x)
    x = np.clip(x, 0.0, 1.0)
    return _norm_lb(_axis_gaps(x, x, t_lo, t_hi, f.space)) + 1e-15


def _cube_clearances(points: np.ndarray, lo, hi, space: Space) -> np.ndarray:
    """Min distance of each point to the boundary of box [lo, hi]; negative outside.

    Points and boxes lie in [0, 1] and are (n, ...) arrays that broadcast
    against each other.  On the torus a point can sit in the box only
    after an integer shift, and the best of the shifts -1, 0 and 1 is the
    lift q + rint(c - q) nearest the box's center c.  Where that lift lies
    within 2^-40 of half a turn from the center the other near lift ties
    with it, up to rounding: there both are computed and combined in the
    order of their shifts, so every bit is that of the best of the three.
    """
    if space is Space.TORUS:
        shift = np.rint(0.5 * (lo + hi) - points)
        q = points + shift
        clear = np.minimum(q - lo, hi - q)
        # clear is (hi - lo) / 2 - |q - c| up to rounding, so a lift within
        # _TIE of half a turn from the center has this clearance or less.
        tie = clear <= 0.5 * (hi - lo) - (0.5 - _TIE)
        if tie.any():
            at = np.nonzero(tie)
            x, a, b, t = (np.broadcast_to(v, clear.shape)[at] for v in (points, lo, hi, shift))
            other = t + np.where(x + t < 0.5 * (a + b), 1.0, -1.0)
            lifts = (x + np.minimum(t, other), x + np.maximum(t, other))
            clear[at] = np.maximum(*(np.minimum(y - a, b - y) for y in lifts))
    else:
        clear = np.minimum(points - lo, hi - points)
    least = clear[0]
    for axis in range(1, len(clear)):
        least = np.minimum(least, clear[axis])
    return least


def _endomorphism_check(f: MapSpec, s: Subdivision) -> None:
    if s.space is Space.TORUS:
        return
    lo, hi = eval_box(f, Direction.FORWARD, np.zeros(s.n), np.ones(s.n))
    # Allow the 4-ulp outward rounding of the enclosure itself.
    slack = 1e-12
    if np.any(lo < -slack) or np.any(hi > 1.0 + slack):
        raise NotEndomorphismError(
            f"{f.descriptor} maps the cube outside itself: enclosure "
            f"{lo.tolist()}..{hi.tolist()}"
        )


def build_graph(
    f: MapSpec,
    s: Subdivision,
    samples_per_cube: int = 5,
    refine_depth: int = 6,
) -> TransitionGraph:
    """Classify every ordered cube pair as nonempty / empty / uncertain.

    One rigorous image enclosure per source cube, all computed rows in one
    call, decides emptiness with a gap to each target of the row's
    near-band window (``_row_windows``); the targets outside it lie more
    than the band away and are empty.  Each source cube's closed sample
    grid hunts for witnesses among the surviving candidates, the rows
    settled in blocks whose windowed pairs times the samples stay within
    _GATHERED; the still-open pairs of all rows then go through one
    bounded refinement pass that subdivides their source cubes up to
    ``refine_depth`` times, all pairs in lockstep.

    Toral-linear maps on the torus commute with the grid translations, so
    their rows are exact translates of row 0, the one row computed; the rest
    are derived in one array pass.  The rows' near-miss pairs keep their
    row gap and the refined-empty pairs the gap that closed them, as
    ``gap_pairs`` and ``gaps``; ``min_empty_gap`` is the least windowed row
    gap or stored gap, and at most _NEAR_BAND cube widths when a window
    left a target out (as the minimum-gap search is).  No near-miss code
    is derived and no gap searched here.
    """
    if samples_per_cube < 1:
        raise ValueError("samples_per_cube must be >= 1")
    if f.n != s.n:
        raise ValueError(f"map dimension {f.n} != subdivision dimension {s.n}")
    _endomorphism_check(f, s)

    offsets = _sample_offsets(s.n, samples_per_cube)
    cubes = _cube_bounds(s)
    lo_all, hi_all = cubes
    n, count = s.n, s.count
    index_matrix = equivariant_index_matrix(f, s)
    rows = np.arange(1 if index_matrix is not None else count)
    e_lo, e_hi = (e.T for e in eval_box(
        f, Direction.FORWARD, lo_all.take(rows, axis=1).T, hi_all.take(rows, axis=1).T
    ))
    first, size = _row_windows(e_lo, e_hi, s)
    pairs = size.prod(axis=0)
    witnesses, open_pairs, near = [], [], []
    row_min = _NEAR_BAND * s.cube_width if np.any(pairs < count) else math.inf
    # load[k]: the (pair, sample) rows of the first k rows.
    load = np.concatenate([[0], np.cumsum(pairs * offsets.shape[1])])
    start = 0
    while start < len(rows):
        # Rows while their windowed pairs times the samples stay within
        # _GATHERED (one row always goes).
        stop = int(np.searchsorted(load, load[start] + _GATHERED, side="right")) - 1
        block, start = rows[start:max(stop, start + 1)], max(stop, start + 1)
        row, j, gaps = _window_gaps(*(a[:, block] for a in (e_lo, e_hi, first, size)), s)
        codes = block[row] * count + j
        empty = gaps > 0.0
        row_min = min(row_min, float(gaps[empty].min(initial=math.inf)))
        close = empty & (gaps <= _NEAR_BAND * s.cube_width)
        near.append((codes[close], gaps[close]))
        # Each candidate pair (row, target) tries its source cube's samples,
        # whose clearances in the source cube are computed once.
        r, j, codes = row[~empty], j[~empty], codes[~empty]
        src_lo, src_hi = (c.take(block, axis=1)[..., None] for c in cubes)
        pts = src_lo + offsets[:, None] * (src_hi - src_lo)
        images = eval_points(f, pts.reshape(n, -1).T).T.reshape(pts.shape)
        hit, best, clear = _witnesses(
            _cube_clearances(pts, src_lo, src_hi, s.space).take(r, axis=0),
            _cube_clearances(
                images.take(r, axis=1), lo_all.take(j, axis=1)[..., None],
                hi_all.take(j, axis=1)[..., None], s.space,
            ),
        )
        r_hit, best = r[hit], best[hit]
        witnesses.append((codes[hit], pts[:, r_hit, best], images[:, r_hit, best], clear[hit]))
        open_pairs.append(np.column_stack(np.divmod(codes[~hit], count)))
    del gaps, pts, images  # the block arrays would stay alive through the refinement
    near_codes, near_gaps = (np.concatenate(col) for col in zip(*near))
    open_pairs = np.concatenate(open_pairs)
    uncertain, empty_codes, empty_gaps = [], [], []
    refined = _refine_uncertain(f, s, open_pairs, offsets, refine_depth, cubes)
    for (i, j), result in zip(open_pairs.tolist(), refined):
        if result is None:
            uncertain.append(i * count + j)
        elif isinstance(result, float):
            empty_codes.append(i * count + j)
            empty_gaps.append(result)
        else:
            witnesses.append((
                [i * count + j], np.array([result.point]).T, np.array([result.image]).T,
                [result.clearance],
            ))
    # Witness columns: codes i * count + j, (n, k) points and images, clearances.
    codes, points, images, clearances = zip(*witnesses)
    codes, clearances = np.concatenate(codes), np.concatenate(clearances)
    points, images = np.concatenate(points, axis=1), np.concatenate(images, axis=1)
    uncertain = np.array(uncertain, dtype=np.int64)

    if index_matrix is not None:
        # Pair (i, j) has the geometry of (0, j - A i).  Derived witness
        # points are exact dyadic shifts of row 0's; their images and
        # clearances are recomputed, so the stored data stays verifiable.
        # The derived arrays are (n, witness, source cube 1..).
        translate = partial(_translates, s, index_matrix)
        moved = translate(codes)[:, 1:]
        lo, hi = lo_all[:, None, 1:], hi_all[:, None, 1:]
        pts = points[:, :, None] + lo  # stays in [0, 1]: no wrap
        imgs = eval_points(f, pts.reshape(n, -1).T).T.reshape(pts.shape)
        dst = lo_all.take(moved % count, axis=1)
        clear = np.minimum(
            _cube_clearances(pts, lo, hi, s.space),
            _cube_clearances(imgs, dst, dst + s.cube_width, s.space),
        )
        # Rounding can push a boundary witness out of its cube: demote it
        # rather than store an invalid witness.
        bad = clear < 0.0
        kept = ~bad.ravel()
        codes = np.concatenate([codes, moved[~bad]])
        points = np.concatenate([points, pts.reshape(n, -1).compress(kept, axis=1)], axis=1)
        images = np.concatenate([images, imgs.reshape(n, -1).compress(kept, axis=1)], axis=1)
        clearances = np.concatenate([clearances, clear[~bad]])
        uncertain = np.concatenate([translate(uncertain).ravel(), moved[bad]])

    order = np.argsort(codes)
    gap_pairs = np.concatenate([near_codes, np.array(empty_codes, dtype=np.int64)])
    gaps = np.concatenate([near_gaps, empty_gaps])
    by_code = np.argsort(gap_pairs)
    gap_pairs, gaps = gap_pairs[by_code], gaps[by_code]
    min_gap = min(row_min, float(gaps.min(initial=math.inf)))
    return TransitionGraph(
        subdivision=s,
        map_id=f.descriptor,
        samples_per_cube=samples_per_cube,
        refine_depth=refine_depth,
        index_matrix=index_matrix,
        witness_codes=codes[order],
        points=points.take(order, axis=1).T,
        images=images.take(order, axis=1).T,
        clearances=clearances[order],
        uncertain_codes=np.sort(uncertain),
        gap_pairs=gap_pairs,
        gaps=gaps,
        min_empty_gap=min_gap,
        gap_search=partial(_min_gap_search, f, s, cubes, gap_pairs, gaps, min_gap),
    )


def _witnesses(src_clear: np.ndarray, img_clear: np.ndarray) -> tuple[np.ndarray, ...]:
    """The best sample witnessing C_i -> C_j for each candidate pair, from
    the (pairs, samples) clearances of its samples in C_i and of their
    images in C_j: whether any image lands there, its index, its clearance.

    A sample counts when its image lies in the closed target cube; the
    winner maximizes min(source clearance, image clearance), and a
    boundary-only winner is recorded with clearance 0.
    """
    inside = img_clear >= 0.0
    score = np.where(inside, np.minimum(src_clear, img_clear), -np.inf)
    best = np.argmax(score, axis=1)
    rows = np.arange(len(best))
    clear = score[rows, best]
    return inside[rows, best], best, np.where(0.0 > clear, 0.0, clear)


def equivariant_index_matrix(f: MapSpec, s: Subdivision) -> np.ndarray | None:
    """Integer index action when f commutes with grid translations exactly."""
    if s.space is not Space.TORUS:
        return None
    if f.kind in (MapKind.IDENTITY, MapKind.TRANSLATION, MapKind.TORAL):
        return np.array(f.matrix, dtype=int)
    return None


def _translates(s: Subdivision, index_matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(len(targets), count) codes of the translates (i, j0 + A i mod 2^m)
    of each (0, j0), one column per source cube i."""
    multis = s.multi_indices()
    moved = multis[:, targets, None] + (index_matrix @ multis)[:, None, :]
    return np.arange(s.count) * s.count + s.flat_indices(moved & (s.side - 1))


# Live cells the refinement keeps at once, over all pairs, the cells one
# round of the minimum-gap search splits, and the children it bounds at once.
_MAX_CELLS = 4096
# The (pair, sample) rows one row block may gather: its windowed pairs
# times the samples per cube bound its candidates' sample arrays.
_GATHERED = 1 << 17
# The live cells the minimum-gap search may hold, and the cells it may split.
_HELD_CELLS = 1 << 20


def _child_bits(n: int) -> np.ndarray:
    """(n, 2^n) offsets of a cell's children: child ``mask`` takes the upper
    half on axis a when bit a of ``mask`` is set."""
    return (np.arange(1 << n) >> np.arange(n)[:, None]) & 1


def _split_cells(cubes, src, tgt, level, k: np.ndarray, width: float):
    """The children of dyadic cells, one level down, 2^n per cell in
    ``_child_bits`` order, coordinate-major.

    Cell r is address k[:, r] at depth level[r] inside source cube src[r],
    the box lo + [k, k + 1] width / 2^level; its target is cube tgt[r].
    Returns the children's (n, 2^n cells) addresses, their bounds, and
    their targets' bounds.  Dyadic bounds make every step exact.
    """
    lo_all, hi_all = cubes
    n = len(k)
    fan = 1 << n
    src, tgt = (np.repeat(np.asarray(v, dtype=int), fan) for v in (src, tgt))
    kids = (2 * k[:, :, None] + _child_bits(n)[:, None, :]).reshape(n, -1)
    # C int exponents: numpy's ldexp has no int64 loop, and the cast costs
    # more than the call.
    size = np.ldexp(width, -1 - np.repeat(np.asarray(level, dtype=np.intc), fan))
    lo = lo_all.take(src, axis=1) + kids * size
    return kids, lo, lo + size, lo_all.take(tgt, axis=1), hi_all.take(tgt, axis=1)


def _refine_uncertain(
    f: MapSpec,
    s: Subdivision,
    pairs: np.ndarray,
    offsets: np.ndarray,
    depth: int,
    cubes: tuple[np.ndarray, np.ndarray],
) -> list[EdgeWitness | float | None]:
    """Subdivide source cube i to settle each uncertain pair (i, j) of the
    (P, 2) ``pairs``, sampling each open cell on the (n, samples) grid
    ``offsets``.

    All pairs advance level by level in lockstep, each round splitting
    every open cell of every admitted pair in one enclosure call.  A pair
    is nonempty when a child's sample grid finds a witness (the first such
    child in split order wins), and empty when every child keeps a
    positive enclosure gap to the target; children with gap 0 and no
    witness are the next level's cells.  Returns, per pair, the witness,
    the least gap among the children that closed it when it is empty (they
    cover C_i, so that gap bounds dist(f(C_i), C_j) from below), or None
    when depth runs out first.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    results: list[EdgeWitness | float | None] = [None] * len(pairs)
    if depth == 0:
        return results
    closing = np.full(len(pairs), math.inf)
    lo_all, hi_all = cubes
    n, fan = s.n, 1 << s.n
    # The queue of pairs in progress, one entry per open cell, each pair's
    # cells together: pair index, level, (n, c) dyadic addresses.
    q_pair = np.zeros(0, dtype=np.int64)
    q_level = np.zeros(0, dtype=np.int64)
    q_k = np.zeros((n, 0), dtype=np.int64)
    fresh = 0
    while q_pair.size or fresh < len(pairs):
        # Pairs in progress first, then new ones, while the round's
        # children stay within _MAX_CELLS (one pair always goes).
        heads = np.flatnonzero(np.diff(q_pair, prepend=-1))  # each queued pair's first cell
        cells = np.append(np.diff(heads, append=q_pair.size), np.ones(len(pairs) - fresh, int))
        taken = max(int(np.searchsorted(np.cumsum(cells * fan), _MAX_CELLS, side="right")), 1)
        cut = heads[taken] if taken < heads.size else q_pair.size
        new = max(taken - heads.size, 0)
        cell_pair = np.concatenate([q_pair[:cut], np.arange(fresh, fresh + new)])
        level = np.concatenate([q_level[:cut], np.zeros(new, dtype=np.int64)])
        k = np.concatenate([q_k[:, :cut], np.zeros((n, new), dtype=np.int64)], axis=1)
        q_pair, q_level, q_k, fresh = q_pair[cut:], q_level[cut:], q_k[:, cut:], fresh + new
        src, tgt = pairs[cell_pair].T
        kids, lo, hi, t_lo, t_hi = _split_cells(cubes, src, tgt, level, k, s.cube_width)
        gaps = _image_gaps(f, lo, hi, t_lo, t_hi)
        # The round's pairs and where their children start.
        active = cell_pair[np.flatnonzero(np.diff(cell_pair, prepend=-1))]
        starts = np.flatnonzero(np.diff(np.repeat(cell_pair, fan), prepend=-1))
        least = np.minimum.reduceat(np.where(gaps > 0.0, gaps, math.inf), starts)
        closing[active] = np.minimum(closing[active], least)
        open_rows = np.flatnonzero(gaps == 0.0)
        lo, hi, t_lo, t_hi = (a.take(open_rows, axis=1) for a in (lo, hi, t_lo, t_hi))
        lo, hi = lo[..., None], hi[..., None]
        pts = lo + offsets[:, None] * (hi - lo)
        images = eval_points(f, pts.reshape(n, -1).T).T.reshape(pts.shape)
        clear = _cube_clearances(images, t_lo[..., None], t_hi[..., None], s.space)
        hit_rows = np.flatnonzero(np.any(clear >= 0.0, axis=1))
        # Active pair a owns the open rows cuts[a]:cuts[a + 1]; the first
        # hit row at or after cuts[a] is its witness row when it is below
        # cuts[a + 1].
        cuts = np.searchsorted(open_rows, np.append(starts, len(gaps)))
        first = np.searchsorted(hit_rows, cuts[:-1])
        hits = first < np.searchsorted(hit_rows, cuts[1:])
        r, winners = hit_rows[first[hits]], active[hits]
        owner = pairs[winners, 0]
        _, best, w_clear = _witnesses(
            _cube_clearances(
                pts.take(r, axis=1), lo_all.take(owner, axis=1)[..., None],
                hi_all.take(owner, axis=1)[..., None], s.space,
            ),
            clear.take(r, axis=0),
        )
        for p, q, y, c in zip(
            winners.tolist(), pts[:, r, best].T.tolist(), images[:, r, best].T.tolist(),
            w_clear.tolist(),
        ):
            results[p] = EdgeWitness(tuple(q), tuple(y), c)
        closed = active[cuts[:-1] == cuts[1:]]
        for p, gap in zip(closed.tolist(), closing[closed].tolist()):
            results[p] = gap
        # Open children of the pairs with no hit go one level down, if depth allows.
        row_level = np.repeat(level, fan)[open_rows] + 1
        on = np.repeat(~hits, np.diff(cuts)) & (row_level < depth)
        row_pair = np.repeat(cell_pair, fan)[open_rows]
        q_pair = np.concatenate([q_pair, row_pair[on]])
        q_level = np.concatenate([q_level, row_level[on]])
        q_k = np.concatenate([q_k, kids.take(open_rows[on], axis=1)], axis=1)
    return results


def _min_gap_search(f: MapSpec, s: Subdivision, cubes, codes, gaps, least: float) -> float:
    """The minimum gap from one best-first search (Moore-Skelboe) over the
    cells of every pair in ``codes``, or ``least``, the build's, if none.

    The live cells are columns (pair, level, dyadic address, lower bound),
    starting from each pair's source cube at its stored gap.  Each round
    splits the _MAX_CELLS cells of least bound; a child's bound is the
    larger of its own enclosure gap and its parent's, and the image of
    its center lowers the best upper bound, above which cells are
    dropped.  The search stops when that upper bound is within
    2^-12 cube widths of the least live bound, or before the live cells
    would exceed _HELD_CELLS, or once it has split _HELD_CELLS cells;
    every stop is sound.  The minimum is the least bound of the dropped and
    the live cells; pairs outside ``codes`` all have a row gap above the
    near band, so it is capped there.
    """
    if not len(codes):
        return least
    tol = s.cube_width * _SHARPEN_REL_TOL
    fan = 1 << s.n
    src, tgt = np.divmod(codes, s.count)
    pair = np.arange(len(codes))
    level = np.zeros(len(codes), dtype=int)
    k = np.zeros((s.n, len(codes)), dtype=int)
    lb = gaps
    dropped, upper, pops = math.inf, math.inf, 0
    while lb.size and upper - lb.min() > tol and pops < _HELD_CELLS:
        take = min(_MAX_CELLS, lb.size)
        if lb.size + take * (fan - 1) > _HELD_CELLS:
            break
        best = np.argpartition(lb, take - 1)[:take]
        rest = np.ones(lb.size, dtype=bool)
        rest[best] = False
        kids, *cells = _split_cells(
            cubes, src[pair[best]], tgt[pair[best]], level[best], k.take(best, axis=1),
            s.cube_width,
        )
        # The take * 2^n children are bounded _MAX_CELLS at a time; rows
        # are independent, so the chunks give the bits of one call.
        image = []
        for c in range(0, kids.shape[1], _MAX_CELLS):
            chunk = [a[:, c:c + _MAX_CELLS] for a in cells]
            image.append(_image_gaps(f, *chunk))
            upper = min(upper, float(_center_bounds(f, *chunk).min()))
        bound = np.maximum(np.concatenate(image), np.repeat(lb[best], fan))
        pops += take
        pair = np.concatenate([pair[rest], np.repeat(pair[best], fan)])
        level = np.concatenate([level[rest], np.repeat(level[best] + 1, fan)])
        k = np.concatenate([k.compress(rest, axis=1), kids], axis=1)
        lb = np.concatenate([lb[rest], bound])
        live = lb <= upper
        dropped = min(dropped, float(lb[~live].min(initial=math.inf)))
        pair, level, k, lb = pair[live], level[live], k.compress(live, axis=1), lb[live]
    return min(dropped, float(lb.min(initial=math.inf)), _NEAR_BAND * s.cube_width)


def delta_bound(g: TransitionGraph, allow_uncertain: bool = False) -> float:
    """Largest pseudo-orbit defect the graph can absorb.

    Any delta-pseudo-orbit with delta below this value has an itinerary whose
    consecutive cubes are never a provably-empty pair. With no empty pair at
    all, every delta works, encoded as the space diameter.  Otherwise it is
    the graph's ``sharpened_min_gap``: the one reader of the gap search.
    """
    if g.uncertain_count and not allow_uncertain:
        raise UncertainEdgesError(
            f"{g.uncertain_count} uncertain edges; refine further or pass "
            "allow_uncertain to treat them as nonempty"
        )
    if math.isinf(g.min_empty_gap):
        return space_diameter(g.subdivision.n, g.subdivision.space)
    return g.sharpened_min_gap


def find_path(
    g: TransitionGraph, start: int, goal: int, max_len: int | None = None
) -> list[int]:
    """Shortest CertifiedNonempty path, deterministic smallest-index tie-break."""
    count = g.subdivision.count
    _check_cubes(count, start, goal)
    if start == goal:
        return [start]
    limit = max_len if max_len is not None else count
    parent: dict[int, int] = {start: -1}
    frontier = [start]
    for _depth in range(limit):
        next_frontier: list[int] = []
        for i in frontier:
            for j in g.successors(i):
                if j not in parent:
                    parent[j] = i
                    if j == goal:
                        path = [j]
                        while path[-1] != start:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    next_frontier.append(j)
        if not next_frontier:
            break
        frontier = sorted(next_frontier)
    raise NoPathError(f"no CertifiedNonempty path {start} -> {goal} within {limit} steps")

