"""Cube transition graph induced by a map on a dyadic subdivision.

Edges are three-valued: an interval enclosure can prove emptiness with a
positive gap, a checked witness point proves nonemptiness, and everything
else stays Uncertain rather than being silently rounded either way.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
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
# The sharpened minimum gap is exact to this fraction of a cube width.
_SHARPEN_REL_TOL = 2.0 ** -12


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
    ``clearances``; Uncertain pairs are ``uncertain_codes``; near-miss
    CertifiedEmpty pairs are ``gap_codes``, each sharing the gap of the
    computed pair at position ``gap_rows`` of ``computed_gaps``; every other
    pair is CertifiedEmpty.  ``index_matrix`` is the index action of a map
    that commutes with the grid translations.  The gaps stay coarse until
    the first read of ``min_empty_gap`` or of a gap runs ``sharpen``.
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
    gap_codes: np.ndarray
    gap_rows: np.ndarray
    computed_gaps: dict[tuple[int, int], float]
    sharpen: Callable[[], float]

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
    def min_empty_gap(self) -> float:
        """Min over CertifiedEmpty pairs (+inf if none); the first read sharpens."""
        return self.sharpen()

    @cached_property
    def _gap_values(self) -> list[float]:
        self.min_empty_gap
        return np.array(list(self.computed_gaps.values()), dtype=float)[self.gap_rows].tolist()

    @property
    def empty_gaps(self) -> PairRows:
        """Near-miss CertifiedEmpty pair -> its gap; reading a gap sharpens first."""
        return PairRows(self.gap_codes, self.subdivision.count, lambda k: self._gap_values[k])

    def status(self, i: int, j: int) -> EdgeStatus:
        if (i, j) in self.witnesses:
            return EdgeStatus.NONEMPTY
        if (i, j) in self.uncertain:
            return EdgeStatus.UNCERTAIN
        return EdgeStatus.EMPTY

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
        """Whether each pair (i[k], j[k]) is certified empty, in one array pass."""
        return ~np.isin(i * self.subdivision.count + j, self._live_codes)

    def class_codes(self, codes: np.ndarray) -> np.ndarray:
        """The code of each pair's translation-class representative: when
        f(x + t) = f(x) + A t (A = ``index_matrix``), pair (i, j) is the
        translate of (0, j - A i mod 2^m); otherwise its own class."""
        if self.index_matrix is None:
            return codes
        s = self.subdivision
        multis = s.multi_indices()
        i, j = np.divmod(codes, s.count)
        return s.flat_indices((multis[j] - multis[i] @ self.index_matrix.T) % s.side)

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
        near = {f"{i},{j}": g for (i, j), g in zip(self.empty_gaps, self._gap_values)}
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
    """Regular closed grid in [0,1]^n cube-local coordinates, corners included.

    Closed sampling matters: subdivision cubes are closed, so two cubes that
    only share boundary still intersect and their shared points are the only
    available witnesses.
    """
    if samples_per_cube == 1:
        axis = np.array([0.5])
    else:
        axis = np.linspace(0.0, 1.0, samples_per_cube)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _cube_bounds(s: Subdivision) -> tuple[np.ndarray, np.ndarray]:
    """(count, n) lower and upper corners of every cube, in flat-index order."""
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
    """Euclidean norm over the last axis, nudged down 2 ulps so it stays a
    lower bound under rounding; exactly 0 where every axis gap is 0."""
    total = gaps[..., 0] * gaps[..., 0]
    for axis in range(1, gaps.shape[-1]):
        total = total + gaps[..., axis] * gaps[..., axis]
    return np.where(total > 0.0, nudge_down(np.sqrt(total), 2), 0.0)


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
    """Certified lower bound on dist(f(cell), target) for every row of a
    (k, n) batch of cells [lo, hi], from one enclosure of the batch."""
    e_lo, e_hi = eval_box(f, Direction.FORWARD, lo, hi)
    return _norm_lb(_lift_gaps(e_lo, e_hi, t_lo, t_hi, f.space))


def _center_bounds(f: MapSpec, lo: np.ndarray, hi: np.ndarray, t_lo, t_hi) -> np.ndarray:
    """Upper bound on dist(f(cell), target) for every row: the distance
    from the image of the cell's center to the target, plus 1e-15."""
    x = eval_points(f, 0.5 * (lo + hi))
    if f.space is Space.TORUS:
        x = x - np.floor(x)
    x = np.clip(x, 0.0, 1.0)
    return _norm_lb(_axis_gaps(x, x, t_lo, t_hi, f.space)) + 1e-15


def _cube_clearances(points: np.ndarray, lo, hi, space: Space) -> np.ndarray:
    """Min distance of each point to the boundary of box [lo, hi]; negative outside.

    On the torus a point can sit in the box only after an integer shift, so
    each axis takes the best shift.  The box bounds broadcast against the
    points along the last axis.
    """
    best = np.full(points.shape, -np.inf)
    shifts = (-1.0, 0.0, 1.0) if space is Space.TORUS else (0.0,)
    for shift in shifts:
        q = points + shift
        clear = np.minimum(q - lo, hi - q)
        best = np.maximum(best, clear)
    return best.min(axis=-1)


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

    Per source cube: one rigorous image enclosure decides emptiness with a
    gap, all computed rows being enclosed in one call; a closed sample grid
    hunts for witnesses among the surviving candidates; the still-open
    pairs of all rows then go through one bounded refinement pass that
    subdivides their source cubes up to ``refine_depth`` times, all pairs
    in lockstep.

    Toral-linear maps on the torus commute with the grid translations, so
    their rows are exact translates of row 0, the one row computed; the rest
    are derived in one array pass.  The minimum gap is sharpened on read.
    """
    if samples_per_cube < 1:
        raise ValueError("samples_per_cube must be >= 1")
    if f.n != s.n:
        raise ValueError(f"map dimension {f.n} != subdivision dimension {s.n}")
    _endomorphism_check(f, s)

    offsets = _sample_offsets(s.n, samples_per_cube)
    cubes = _cube_bounds(s)
    count = s.count
    index_matrix = equivariant_index_matrix(f, s)
    rows = [0] if index_matrix is not None else list(range(count))
    e_lo, e_hi = eval_box(f, Direction.FORWARD, cubes[0][rows], cubes[1][rows])
    computed = [
        _compute_row(f, s, i, offsets, cubes, e_lo[r], e_hi[r]) for r, i in enumerate(rows)
    ]
    witnesses = [tuple(np.concatenate(col) for col in zip(*(wit for wit, *_ in computed)))]
    open_pairs = [(i, j) for i, (_, unc, _, _) in zip(rows, computed) for j in unc]
    gaps = {pair: gap for _, _, row_gaps, _ in computed for pair, gap in row_gaps.items()}
    coarse_min = min((row_min for *_, row_min in computed), default=math.inf)
    del computed  # its row arrays would stay alive through the refinement, the peak
    uncertain = []
    refined = _refine_uncertain(f, s, open_pairs, offsets, refine_depth, cubes)
    for (i, j), result in zip(open_pairs, refined):
        if result is None:
            uncertain.append(i * count + j)
        elif isinstance(result, EdgeWitness):
            witnesses.append(([i * count + j], [result.point], [result.image], [result.clearance]))
        else:
            gaps[(i, j)] = result
            coarse_min = min(coarse_min, result)
    # Witness columns: codes i * count + j, points, images, clearances.
    cols = [np.concatenate(col) for col in zip(*witnesses)]
    uncertain = np.array(uncertain, dtype=np.int64)
    gaps = dict(sorted(gaps.items()))
    gap_codes = np.array([i * count + j for i, j in gaps], dtype=np.int64)
    gap_rows = np.arange(len(gaps))

    if index_matrix is not None:
        # Pair (i, j) has the geometry of (0, j - A i).  Derived witness
        # points are exact dyadic shifts of row 0's; their images and
        # clearances are recomputed, so the stored data stays verifiable.
        order = np.argsort(cols[0])
        cols = [c[order] for c in cols]
        translate = partial(_translates, s, index_matrix)
        moved = translate(cols[0])
        lo = s.multi_indices() * s.cube_width
        pts = cols[1][None, :, :] + lo[:, None, :]  # stays in [0, 1]: no wrap
        imgs = eval_points(f, pts.reshape(-1, s.n)).reshape(pts.shape)
        dst = lo[moved % count]
        clear = np.minimum(
            _cube_clearances(pts, lo[:, None, :], lo[:, None, :] + s.cube_width, s.space),
            _cube_clearances(imgs, dst, dst + s.cube_width, s.space),
        )
        # Rounding can push a boundary witness out of its cube: demote it
        # rather than store an invalid witness.
        bad = clear[1:] < 0.0
        derived = (moved, pts, imgs, clear)
        cols = [np.concatenate([c, d[1:][~bad]]) for c, d in zip(cols, derived)]
        uncertain = np.concatenate([translate(uncertain).ravel(), moved[1:][bad]])
        gap_codes = translate(gap_codes).ravel()
        gap_rows = np.tile(gap_rows, count)

    order = np.argsort(cols[0])
    codes, points, images, clearances = (c[order] for c in cols)
    by_gap = np.argsort(gap_codes)
    return TransitionGraph(
        subdivision=s,
        map_id=f.descriptor,
        samples_per_cube=samples_per_cube,
        refine_depth=refine_depth,
        index_matrix=index_matrix,
        witness_codes=codes,
        points=points,
        images=images,
        clearances=clearances,
        uncertain_codes=np.sort(uncertain),
        gap_codes=gap_codes[by_gap],
        gap_rows=gap_rows[by_gap],
        computed_gaps=gaps,
        sharpen=partial(_sharpen_min_gap, f, s, gaps, coarse_min, cubes),
    )


def _witnesses(
    pts: np.ndarray, images: np.ndarray, src_lo, src_hi, t_lo, t_hi, space: Space
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best sample witnessing C_i -> C_j for each target row of
    [t_lo, t_hi]: whether any image lands there, its index, its clearance.

    ``pts`` are the samples of one source cell [src_lo, src_hi] and
    ``images`` their images.  A sample counts when its image lies in the
    closed target cube; the winner maximizes min(source clearance, image
    clearance), and a boundary-only winner is recorded with clearance 0.
    """
    img_clear = _cube_clearances(images, t_lo[:, None, :], t_hi[:, None, :], space)
    inside = img_clear >= 0.0
    src_clear = _cube_clearances(pts, src_lo, src_hi, space)
    score = np.where(inside, np.minimum(src_clear, img_clear), -np.inf)
    best = np.argmax(score, axis=1)
    rows = np.arange(len(best))
    clear = score[rows, best]
    return inside[rows, best], best, np.where(0.0 > clear, 0.0, clear)


def _compute_row(f: MapSpec, s: Subdivision, i: int, offsets, cubes, e_lo, e_hi) -> tuple:
    """One source cube, given its image enclosure [e_lo, e_hi]: its witness
    columns (codes, points, images, clearances), uncertain targets,
    near-miss gaps and min gap."""
    gaps = _norm_lb(_lift_gaps(e_lo, e_hi, *cubes, s.space))
    empties = np.flatnonzero(gaps > 0.0)
    row_min = float(gaps[empties].min()) if empties.size else math.inf
    near = empties[gaps[empties] <= _NEAR_BAND * s.cube_width]
    row_gaps = {(i, j): g for j, g in zip(near.tolist(), gaps[near].tolist())}

    candidates = np.flatnonzero(gaps == 0.0)
    lo_all, hi_all = cubes
    pts = lo_all[i] + offsets * (hi_all[i] - lo_all[i])
    images = eval_points(f, pts)
    hit, best, clear = _witnesses(
        pts, images, lo_all[i], hi_all[i], lo_all[candidates], hi_all[candidates], s.space
    )
    wit = (i * s.count + candidates[hit], pts[best[hit]], images[best[hit]], clear[hit])
    return wit, candidates[~hit].tolist(), row_gaps, row_min


def equivariant_index_matrix(f: MapSpec, s: Subdivision) -> np.ndarray | None:
    """Integer index action when f commutes with grid translations exactly."""
    if s.space is not Space.TORUS:
        return None
    if f.kind in (MapKind.IDENTITY, MapKind.TRANSLATION, MapKind.TORAL):
        return np.array(f.matrix, dtype=int)
    return None


def _translates(s: Subdivision, index_matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(count, len(targets)) codes of the translates (i, j0 + A i mod 2^m) of (0, j0)."""
    multis = s.multi_indices()
    moved = (multis[targets][None, :, :] + (multis @ index_matrix.T)[:, None, :]) % s.side
    return np.arange(s.count)[:, None] * s.count + s.flat_indices(moved)


def _sharpen_min_gap(
    f: MapSpec,
    s: Subdivision,
    empty_gaps: dict[tuple[int, int], float],
    min_empty_gap: float,
    cubes: tuple[np.ndarray, np.ndarray],
) -> float:
    """Tighten the minimum certified gap to within _SHARPEN_REL_TOL * cube_width.

    Pairs are revisited in ascending order of their coarse bound; a pair
    whose coarse bound already beats the best refined value cannot lower
    the minimum and is skipped, so only a handful get the deep search.
    Candidates are searched in waves of 1, 2, 4, ... pairs, each wave in
    one lockstep search, and the skip rule is replayed over each wave's
    results, so the stored gaps are those of one pair at a time and the
    speculative work is at most the rule's own.
    """
    if not empty_gaps:
        return min_empty_gap
    tol = s.cube_width * _SHARPEN_REL_TOL
    # Pairs beyond the stored near band all have a larger gap, so any
    # refined value is capped there to keep the minimum a true lower bound.
    near_band = _NEAR_BAND * s.cube_width
    order = sorted(empty_gaps.items(), key=lambda kv: (kv[1], kv[0]))
    best = math.inf
    start, size = 0, 1
    while start < len(order) and order[start][1] < best:
        wave = [(pair, coarse) for pair, coarse in order[start : start + size] if coarse < best]
        fines = _distance_lbs(f, s, [pair for pair, _ in wave], tol, cubes)
        for (pair, coarse), fine in zip(wave, fines):
            if coarse >= best:
                break
            fine = min(fine, near_band)
            if fine > coarse:
                empty_gaps[pair] = fine
            best = min(best, empty_gaps[pair])
        start += size
        size *= 2
    return best


# Live cells the refinement keeps at once, over all pairs, and the pops one
# branch and bound may make.
_MAX_CELLS = 4096

# A branch-and-bound cell is packed into one int: its depth in the low
# _DEPTH_BITS, then one _FIELD_BITS field per axis holding its dyadic
# address k inside the source cube, the cell being lo + [k, k + 1] w / 2^depth.
# Deep searches hold tens of thousands of cells per heap, and one int per
# cell keeps them small and cheap to push: heap entries of (depth, address
# list) give the same bits on the 3-D perturbed cat map at m=2
# (refine_depth 3) but peak at 371 MB against 215 MB and take about 3x the
# time (219 s against 71 s on a 2-core VM).
_DEPTH_BITS = 16
_FIELD_BITS = 64


def _child_bits(n: int) -> np.ndarray:
    """(2^n, n) offsets of a cell's children: child ``mask`` takes the upper
    half on axis a when bit a of ``mask`` is set."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def _split_cells(cubes, src, tgt, level, k: np.ndarray, width: float):
    """The children of dyadic cells, one level down, 2^n rows per cell in
    ``_child_bits`` order.

    Cell r is address k[r] at depth level[r] inside source cube src[r],
    the box lo + [k, k + 1] width / 2^level; its target is cube tgt[r].
    Returns the children's addresses, their bounds, and their targets'
    bounds.  Dyadic bounds make every step exact.
    """
    lo_all, hi_all = cubes
    n = k.shape[1]
    fan = 1 << n
    src, tgt, level = (np.repeat(np.asarray(v, dtype=int), fan) for v in (src, tgt, level))
    kids = (2 * k[:, None, :] + _child_bits(n)).reshape(-1, n)
    size = np.ldexp(width, -1 - level)[:, None]
    lo = lo_all[src] + kids * size
    return kids, lo, lo + size, lo_all[tgt], hi_all[tgt]


def _refine_uncertain(
    f: MapSpec,
    s: Subdivision,
    pairs: list[tuple[int, int]],
    offsets: np.ndarray,
    depth: int,
    cubes: tuple[np.ndarray, np.ndarray],
) -> list[EdgeWitness | float | None]:
    """Subdivide source cube i to settle each uncertain pair (i, j).

    Status phase: all pairs advance level by level in lockstep, each round
    splitting every open cell of every admitted pair in one enclosure
    call.  A pair is nonempty when a child's sample grid finds a witness
    (the first such child in split order wins), and empty when every
    child keeps a positive enclosure gap to the target; children with gap
    0 and no witness are the next level's cells.  Gap phase: the empty
    pairs get a branch-and-bound distance lower bound (``_distance_lbs``),
    so the recorded gap is close to the true set distance, not just the
    first positive number encountered.  Returns, per pair, the witness,
    the certified gap, or None when depth runs out first.
    """
    results: list[EdgeWitness | float | None] = [None] * len(pairs)
    if depth == 0:
        return results
    lo_all, hi_all = cubes
    n = s.n
    root = np.zeros((1, n), dtype=int)
    empty: list[int] = []
    fresh = deque(range(len(pairs)))
    # (pair index, level, (c, n) dyadic addresses of the open cells)
    queue: deque[tuple[int, int, np.ndarray]] = deque()
    while queue or fresh:
        # Pairs in progress first, then new ones, while the round's
        # children stay within _MAX_CELLS (one pair always goes).
        active: list[tuple[int, int, np.ndarray]] = []
        cost = 0
        while queue or fresh:
            p, level, k = queue[0] if queue else (fresh[0], 0, root)
            if active and cost + (len(k) << n) > _MAX_CELLS:
                break
            (queue if queue else fresh).popleft()
            active.append((p, level, k))
            cost += len(k) << n
        cells = [len(k) for _, _, k in active]
        kids, lo, hi, t_lo, t_hi = _split_cells(
            cubes,
            np.repeat([pairs[p][0] for p, _, _ in active], cells),
            np.repeat([pairs[p][1] for p, _, _ in active], cells),
            np.repeat([level for _, level, _ in active], cells),
            np.concatenate([k for _, _, k in active]),
            s.cube_width,
        )
        open_rows = np.flatnonzero(_image_gaps(f, lo, hi, t_lo, t_hi) == 0.0)
        lo, hi = lo[open_rows, None, :], hi[open_rows, None, :]
        t_lo, t_hi = t_lo[open_rows], t_hi[open_rows]
        pts = lo + offsets * (hi - lo)
        images = eval_points(f, pts.reshape(-1, n)).reshape(pts.shape)
        clear = _cube_clearances(images, t_lo[:, None, :], t_hi[:, None, :], s.space)
        hit = np.any(clear >= 0.0, axis=1)
        cuts = np.searchsorted(open_rows, np.cumsum([0] + cells) << n).tolist()
        for a, (p, level, _) in enumerate(active):
            first, stop = cuts[a], cuts[a + 1]
            hits = np.flatnonzero(hit[first:stop])
            if hits.size:
                r = first + int(hits[0])
                i = pairs[p][0]
                _, (k,), (c,) = _witnesses(
                    pts[r], images[r], lo_all[i], hi_all[i],
                    t_lo[r : r + 1], t_hi[r : r + 1], s.space,
                )
                results[p] = EdgeWitness(
                    tuple(pts[r, k].tolist()), tuple(images[r, k].tolist()), float(c)
                )
            elif first == stop:
                empty.append(p)
            elif level + 1 < depth:
                queue.append((p, level + 1, kids[open_rows[first:stop]]))
    gaps = _distance_lbs(f, s, [pairs[p] for p in empty], s.cube_width / (1 << depth), cubes)
    for p, gap in zip(empty, gaps):
        results[p] = gap
    return results


@dataclass(slots=True)
class _Search:
    """One pair's branch and bound: its heap of (lower bound, counter, cell)."""

    index: int
    heap: list[tuple[float, int, int]]
    best_ub: float
    counter: int = 0
    processed: int = 0


def _distance_lbs(
    f: MapSpec,
    s: Subdivision,
    pairs: list[tuple[int, int]],
    tol: float,
    cubes: tuple[np.ndarray, np.ndarray],
) -> list[float]:
    """Certified lower bound on dist(f(C_i), C_j) for each pair (i, j),
    within ``tol`` of the truth.

    Branch and bound: cells of C_i are scored by the enclosure gap of
    their image (a lower bound) against the gap at their center point (an
    upper bound); each pair refines its smallest lower bound until the two
    meet, or until it has split _MAX_CELLS cells.  The pairs run in
    lockstep: each round pops one cell per pair, exactly the cell its own
    search would pop next, and bounds the children of all popped cells in
    one call.  One pair starts per round while the cells held in all heaps
    stay under _MAX_CELLS.
    """
    lo_all, hi_all = cubes
    n = s.n
    spread = [
        sum(int(b) << (_DEPTH_BITS + _FIELD_BITS * a) for a, b in enumerate(row))
        for row in _child_bits(n)
    ]
    depth_mask = (1 << _DEPTH_BITS) - 1
    field_mask = (1 << _FIELD_BITS) - 1
    out = [0.0] * len(pairs)
    pending = iter(range(len(pairs)))
    active: list[_Search] = []
    while True:
        popped: list[tuple[_Search, int]] = []
        for search in active:
            if search.processed >= _MAX_CELLS:
                out[search.index] = search.heap[0][0]
                continue
            lb, _, cell = heapq.heappop(search.heap)
            if search.best_ub - lb <= tol:
                out[search.index] = lb
                continue
            search.processed += 1
            popped.append((search, cell))
        active = [search for search, _ in popped]
        admitted = None
        if sum(len(search.heap) for search in active) < _MAX_CELLS:
            admitted = next(pending, None)
        if not popped and admitted is None:
            break
        # The children of every popped cell, then the source cube of the
        # admitted pair, bounded in one call.
        levels = [cell & depth_mask for _, cell in popped]
        k = np.array(
            [[(cell >> (_DEPTH_BITS + _FIELD_BITS * a)) & field_mask for a in range(n)]
             for _, cell in popped],
            dtype=float,
        ).reshape(-1, n)
        _, lo, hi, t_lo, t_hi = _split_cells(
            cubes,
            [pairs[search.index][0] for search, _ in popped],
            [pairs[search.index][1] for search, _ in popped],
            levels,
            k,
            s.cube_width,
        )
        if admitted is not None:
            i, j = pairs[admitted]
            lo, hi = np.vstack([lo, lo_all[i]]), np.vstack([hi, hi_all[i]])
            t_lo, t_hi = np.vstack([t_lo, lo_all[j]]), np.vstack([t_hi, hi_all[j]])
        lower = _image_gaps(f, lo, hi, t_lo, t_hi).tolist()
        upper = _center_bounds(f, lo, hi, t_lo, t_hi).tolist()
        row = 0
        for (search, cell), level in zip(popped, levels):
            base = ((cell >> _DEPTH_BITS) << (_DEPTH_BITS + 1)) | (level + 1)
            for offset in spread:
                search.best_ub = min(search.best_ub, upper[row])
                search.counter += 1
                heapq.heappush(search.heap, (lower[row], search.counter, base | offset))
                row += 1
        if admitted is not None:
            active.append(_Search(admitted, [(lower[row], 0, 0)], upper[row]))
    return out


def delta_bound(g: TransitionGraph, allow_uncertain: bool = False) -> float:
    """Largest pseudo-orbit defect the graph can absorb.

    Any delta-pseudo-orbit with delta below this value has an itinerary whose
    consecutive cubes are never a provably-empty pair. With no empty pair at
    all, every delta works, encoded as the space diameter.
    """
    if g.uncertain_count and not allow_uncertain:
        raise UncertainEdgesError(
            f"{g.uncertain_count} uncertain edges; refine further or pass "
            "allow_uncertain to treat them as nonempty"
        )
    if math.isinf(g.min_empty_gap):
        return space_diameter(g.subdivision.n, g.subdivision.space)
    return g.min_empty_gap


def find_path(
    g: TransitionGraph, start: int, goal: int, max_len: int | None = None
) -> list[int]:
    """Shortest CertifiedNonempty path, deterministic smallest-index tie-break."""
    count = g.subdivision.count
    for idx in (start, goal):
        if not (0 <= idx < count):
            raise ValueError(f"cube index {idx} out of range")
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


def strongly_connected(g: TransitionGraph) -> bool:
    """Connectivity of the CertifiedNonempty subgraph (mixing proxy for splicing)."""
    count = g.subdivision.count
    if count == 1:
        return (0, 0) in g.witnesses
    src, dst = np.divmod(g.witness_codes, count)

    def spans(a: np.ndarray, b: np.ndarray) -> bool:
        """Whether edges a -> b reach every cube from cube 0."""
        seen = np.arange(count) == 0
        while not seen[b[seen[a]]].all():
            seen[b[seen[a]]] = True
        return bool(seen.all())

    return spans(src, dst) and spans(dst, src)
