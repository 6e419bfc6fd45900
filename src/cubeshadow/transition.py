"""Cube transition graph induced by a map on a dyadic subdivision.

Edges are three-valued: an interval enclosure can prove emptiness with a
positive gap, a checked witness point proves nonemptiness, and everything
else stays Uncertain rather than being silently rounded either way.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .dynamics import Direction, MapKind, MapSpec, eval_box, eval_point, eval_points
from .errors import NoPathError, NotEndomorphismError, UncertainEdgesError
from .geometry import (
    Box,
    Space,
    Subdivision,
    point_box_distance_lb,
    set_distance_lb,
    space_diameter,
    split_lift,
)


# Empty pairs within this many cube widths keep their gap in ``empty_gaps``.
_NEAR_BAND = 2.0


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


@dataclass(frozen=True)
class TransitionGraph:
    subdivision: Subdivision
    map_id: str
    samples_per_cube: int
    refine_depth: int
    witnesses: dict[tuple[int, int], EdgeWitness]
    uncertain: frozenset[tuple[int, int]]
    min_empty_gap: float  # min over CertifiedEmpty pairs; +inf when none exist
    empty_gaps: dict[tuple[int, int], float]  # gaps for near-miss pairs only

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
        for i, j in sorted(self.witnesses):
            succ.setdefault(i, []).append(j)
        return {i: tuple(js) for i, js in succ.items()}

    def successors(self, i: int) -> tuple[int, ...]:
        return self._adjacency.get(i, ())

    @property
    def nonempty_count(self) -> int:
        return len(self.witnesses)

    @property
    def uncertain_count(self) -> int:
        return len(self.uncertain)

    def to_json(self) -> dict:
        # Empty pairs are implicit: at order m there are 2^{2nm} ordered
        # pairs, almost all of them empty, so only the exceptions are listed.
        edges = []
        for (i, j), w in sorted(self.witnesses.items()):
            edges.append(
                [i, j, EdgeStatus.NONEMPTY.value, {
                    "witness": list(w.point),
                    "image": list(w.image),
                    "clearance": w.clearance,
                }]
            )
        for (i, j) in sorted(self.uncertain):
            edges.append([i, j, EdgeStatus.UNCERTAIN.value, None])
        near = {f"{i},{j}": g for (i, j), g in sorted(self.empty_gaps.items())}
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
        lines = ["digraph transitions {"]
        for (i, j) in sorted(self.witnesses):
            lines.append(f"  {i} -> {j};")
        lines.append("}")
        return "\n".join(lines)


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


def _axis_gap_table(side: int, width: float, lo: float, hi: float, space: Space) -> np.ndarray:
    """Per-axis distance from interval [lo, hi] to every grid cell of the axis."""
    starts = np.arange(side) * width
    ends = starts + width
    gap = np.maximum(np.maximum(starts - hi, lo - ends), 0.0)
    if space is Space.TORUS:
        for shift in (-1.0, 1.0):
            gap = np.minimum(
                gap, np.maximum(np.maximum(starts - (hi + shift), (lo + shift) - ends), 0.0)
            )
    return gap


def _row_gap_field(s: Subdivision, pieces: list[Box]) -> np.ndarray:
    """Euclidean distance lower bound from the image enclosure to every cube.

    Returns a flat array over all cubes (row-major), nudged down so it stays
    a valid lower bound under accumulated rounding.
    """
    side = 1 << s.m
    width = s.cube_width
    total = np.full((side,) * s.n, np.inf)
    for piece in pieces:
        sq = np.zeros((side,) * s.n)
        for axis in range(s.n):
            g = _axis_gap_table(side, width, piece.lo[axis], piece.hi[axis], s.space)
            shape = [1] * s.n
            shape[axis] = side
            sq = sq + (g.reshape(shape)) ** 2
        total = np.minimum(total, sq)
    field = np.sqrt(total).ravel()
    positive = field > 0
    field[positive] = np.nextafter(np.nextafter(field[positive], 0.0), 0.0)
    return field


def _cube_clearances(points: np.ndarray, box: Box, space: Space) -> np.ndarray:
    """Min distance of each point to the boundary of ``box``; negative outside.

    On the torus a point can sit in the box only after an integer shift, so
    each axis takes the best shift.
    """
    lo = box.lo_arr
    hi = box.hi_arr
    best = np.full(points.shape, -np.inf)
    shifts = (-1.0, 0.0, 1.0) if space is Space.TORUS else (0.0,)
    for shift in shifts:
        q = points + shift
        clear = np.minimum(q - lo, hi - q)
        best = np.maximum(best, clear)
    return best.min(axis=1)


def _endomorphism_check(f: MapSpec, s: Subdivision) -> None:
    if s.space is Space.TORUS:
        return
    full = Box((0.0,) * s.n, (1.0,) * s.n, Space.CUBE)
    lift = eval_box(f, Direction.FORWARD, full)
    # Allow the 4-ulp outward rounding of the enclosure itself.
    slack = 1e-12
    if any(v < -slack for v in lift.lo) or any(v > 1.0 + slack for v in lift.hi):
        raise NotEndomorphismError(
            f"{f.descriptor} maps the cube outside itself: enclosure "
            f"{list(lift.lo)}..{list(lift.hi)}"
        )


def build_graph(
    f: MapSpec,
    s: Subdivision,
    samples_per_cube: int = 5,
    refine_depth: int = 6,
) -> TransitionGraph:
    """Classify every ordered cube pair as nonempty / empty / uncertain.

    Per source cube: one rigorous image enclosure decides emptiness with a
    gap; a closed sample grid hunts for witnesses among the surviving
    candidates; still-open pairs go through a bounded refinement pass that
    subdivides the source cube up to ``refine_depth`` times.

    Toral-linear maps on the torus commute with the grid translations, so
    their rows are exact translates of row 0; that single row is computed in
    full and the rest derived, with every derived witness re-checked.
    """
    if samples_per_cube < 1:
        raise ValueError("samples_per_cube must be >= 1")
    if f.n != s.n:
        raise ValueError(f"map dimension {f.n} != subdivision dimension {s.n}")
    _endomorphism_check(f, s)

    offsets = _sample_offsets(s.n, samples_per_cube)
    witnesses: dict[tuple[int, int], EdgeWitness] = {}
    uncertain: set[tuple[int, int]] = set()
    empty_gaps: dict[tuple[int, int], float] = {}
    min_empty_gap = math.inf

    index_matrix = equivariant_index_matrix(f, s)
    rows = [0] if index_matrix is not None else list(range(s.count))

    for i in rows:
        row_wit, row_unc, row_gaps, row_min = _compute_row(f, s, i, offsets)
        for j in sorted(row_unc):
            result = _refine_uncertain(f, s, i, j, offsets, refine_depth)
            if result is None:
                continue
            row_unc.discard(j)
            if isinstance(result, EdgeWitness):
                row_wit[(i, j)] = result
            else:
                row_gaps[j] = result
                row_min = min(row_min, result)
        witnesses.update(row_wit)
        uncertain.update((i, j) for j in row_unc)
        empty_gaps.update({(i, j): gap for j, gap in row_gaps.items()})
        min_empty_gap = min(min_empty_gap, row_min)

    min_empty_gap = _sharpen_min_gap(f, s, empty_gaps, min_empty_gap)

    if index_matrix is not None:
        _translate_rows(f, s, index_matrix, witnesses, uncertain, empty_gaps)

    return TransitionGraph(
        subdivision=s,
        map_id=f.descriptor,
        samples_per_cube=samples_per_cube,
        refine_depth=refine_depth,
        witnesses=witnesses,
        uncertain=frozenset(uncertain),
        min_empty_gap=min_empty_gap,
        empty_gaps=empty_gaps,
    )


def _witness(
    pts: np.ndarray, images: np.ndarray, src_box: Box, jbox: Box, space: Space
) -> EdgeWitness | None:
    """The best sample witnessing C_i -> C_j, or None when no image lands in C_j.

    A sample counts when its image lies in the closed target cube; the
    winner maximizes min(source clearance, image clearance), and a
    boundary-only winner is recorded with clearance 0.
    """
    img_clear = _cube_clearances(images, jbox, space)
    inside = img_clear >= 0.0
    if not np.any(inside):
        return None
    src_clear = _cube_clearances(pts, src_box, space)
    score = np.where(inside, np.minimum(src_clear, img_clear), -np.inf)
    k = int(np.argmax(score))
    return EdgeWitness(
        point=tuple(pts[k]), image=tuple(images[k]), clearance=max(float(score[k]), 0.0)
    )


def _compute_row(
    f: MapSpec, s: Subdivision, i: int, offsets: np.ndarray
) -> tuple[dict[tuple[int, int], EdgeWitness], set[int], dict[int, float], float]:
    """One source cube: witnesses, uncertain targets, near-miss gaps, min gap."""
    box = s.box(i)
    pieces = split_lift(eval_box(f, Direction.FORWARD, box))
    gaps = _row_gap_field(s, pieces)

    row_wit: dict[tuple[int, int], EdgeWitness] = {}
    row_unc: set[int] = set()
    row_gaps: dict[int, float] = {}
    row_min = math.inf

    empties = np.flatnonzero(gaps > 0.0)
    if empties.size:
        row_min = float(gaps[empties].min())
        for j in empties[gaps[empties] <= _NEAR_BAND * s.cube_width]:
            row_gaps[int(j)] = float(gaps[j])

    candidates = np.flatnonzero(gaps == 0.0)
    if candidates.size:
        pts = box.lo_arr + offsets * (box.hi_arr - box.lo_arr)
        images = eval_points(f, pts)
        for j in candidates.tolist():
            wit = _witness(pts, images, box, s.box(j), s.space)
            if wit is None:
                row_unc.add(j)
            else:
                row_wit[(i, j)] = wit
    return row_wit, row_unc, row_gaps, row_min


def equivariant_index_matrix(f: MapSpec, s: Subdivision) -> np.ndarray | None:
    """Integer index action when f commutes with grid translations exactly."""
    if s.space is not Space.TORUS:
        return None
    if f.kind in (MapKind.IDENTITY, MapKind.TRANSLATION, MapKind.TORAL):
        return np.array(f.matrix, dtype=int)
    return None


def class_representatives(
    f: MapSpec, s: Subdivision, pairs: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The row-0 representative of each cube pair's translation class.

    When f commutes with the grid translations (f(x + t) = f(x) + A t,
    A integer), pair (i, j) is the translate of (0, j - A i mod 2^m) and
    has the same geometry; otherwise each pair is its own class.
    """
    index_matrix = equivariant_index_matrix(f, s)
    if index_matrix is None:
        return list(pairs)
    multis = s.multi_indices()
    ij = np.asarray(pairs, dtype=int).reshape(-1, 2)
    keys = s.flat_indices((multis[ij[:, 1]] - multis[ij[:, 0]] @ index_matrix.T) % s.side)
    return [(0, key) for key in keys.tolist()]


def _translate_rows(
    f: MapSpec,
    s: Subdivision,
    index_matrix: np.ndarray,
    witnesses: dict[tuple[int, int], EdgeWitness],
    uncertain: set[tuple[int, int]],
    empty_gaps: dict[tuple[int, int], float],
) -> None:
    """Populate rows 1.. from row 0 by exact grid translation.

    f(x + t) = f(x) + At for the equivariant kinds, so cube pair (i, j)
    has the same geometry as (0, j - Ai). Derived witness points are exact
    dyadic shifts of row-0 sample points; images and clearances are
    recomputed from scratch so the stored data stays verifiable.
    """
    w = s.cube_width
    multis = s.multi_indices()  # (count, n)
    shifts = multis @ index_matrix.T  # A i for every source cube i

    def row_targets(base_j: list[int]) -> np.ndarray:
        """Where each row-0 target j0 lands in every row i: the
        multi-indices j0 + A i mod 2^m, shape (count, len(base_j), n)."""
        return (multis[base_j][None, :, :] + shifts[:, None, :]) % s.side

    base = sorted(witnesses.items())
    base_unc = sorted({j for (_, j) in uncertain})
    base_gaps = sorted({j: g for (_, j), g in empty_gaps.items()}.items())
    if base:
        tgt_multi = row_targets([j for (_, j), _ in base])
        tgt_flat = s.flat_indices(tgt_multi)  # (count, nwit)
        base_pts = np.array([wit.point for _, wit in base])
        # base point + dyadic shift stays in [0, 1]; no wrap on the source.
        pts = base_pts[None, :, :] + (multis * w)[:, None, :]
        images = eval_points(f, pts.reshape(-1, s.n)).reshape(pts.shape)

        src_lo = (multis * w)[:, None, :]
        dst_lo = tgt_multi * w
        src_clear = np.minimum(pts - src_lo, src_lo + w - pts).min(axis=2)
        # Image clearance is wrap-aware: an image at 0.0 sits on the far
        # face of the last cube as well.
        img_d = (images - dst_lo) % 1.0
        img_clear = np.minimum(img_d, w - img_d).min(axis=2)
        clear = np.minimum(src_clear, img_clear)

        for i in range(1, s.count):
            for k in range(len(base)):
                pair = (i, int(tgt_flat[i, k]))
                c = float(clear[i, k])
                if c < 0.0:
                    # Rounding pushed a boundary witness out of its cube;
                    # demote rather than store an invalid witness.
                    uncertain.add(pair)
                    continue
                witnesses[pair] = EdgeWitness(
                    point=tuple(pts[i, k]),
                    image=tuple(images[i, k]),
                    clearance=c,
                )

    # One row-0 target at a time keeps the index temporaries at (count, n).
    for j0 in base_unc:
        targets = s.flat_indices(row_targets([j0]))[:, 0].tolist()
        uncertain.update((i, targets[i]) for i in range(1, s.count))
    for j0, gap in base_gaps:
        targets = s.flat_indices(row_targets([j0]))[:, 0].tolist()
        empty_gaps.update(((i, targets[i]), gap) for i in range(1, s.count))


def _sharpen_min_gap(
    f: MapSpec,
    s: Subdivision,
    empty_gaps: dict[tuple[int, int], float],
    min_empty_gap: float,
    rel_tol: float = 2.0 ** -12,
) -> float:
    """Tighten the minimum certified gap to within rel_tol * cube_width.

    Pairs are revisited in ascending order of their coarse bound; a pair
    whose coarse bound already beats the best refined value cannot lower
    the minimum and is skipped, so only a handful get the deep search.
    """
    if not empty_gaps:
        return min_empty_gap
    tol = s.cube_width * rel_tol
    # Pairs beyond the stored near band all have a larger gap, so any
    # refined value is capped there to keep the minimum a true lower bound.
    near_band = _NEAR_BAND * s.cube_width
    best = math.inf
    for pair, coarse in sorted(empty_gaps.items(), key=lambda kv: (kv[1], kv[0])):
        if coarse >= best:
            continue
        fine = _pair_distance_lb(f, s.box(pair[0]), s.box(pair[1]), s, tol)
        fine = min(fine, near_band)
        if fine > coarse:
            empty_gaps[pair] = fine
        best = min(best, empty_gaps[pair])
    return best


def _split_box(box: Box, space: Space) -> list[Box]:
    mids = [(l + h) / 2.0 for l, h in zip(box.lo, box.hi)]
    out = []
    n = len(box.lo)
    for mask in range(1 << n):
        lo = [box.lo[a] if not (mask >> a) & 1 else mids[a] for a in range(n)]
        hi = [mids[a] if not (mask >> a) & 1 else box.hi[a] for a in range(n)]
        out.append(Box(tuple(lo), tuple(hi), space))
    return out


def _refine_uncertain(
    f: MapSpec,
    s: Subdivision,
    i: int,
    j: int,
    offsets: np.ndarray,
    depth: int,
) -> EdgeWitness | float | None:
    """Subdivide source cube i to settle the uncertain pair (i, j).

    Status phase: the pair is nonempty when a child's sample grid finds a
    witness, and empty when every child piece keeps a positive enclosure
    gap to the target. Gap phase: an empty pair gets a branch-and-bound
    distance lower bound, so the recorded gap is close to the true set
    distance, not just the first positive number encountered. Returns the
    witness, the certified gap, or None when depth runs out first.
    """
    src_box, jbox = s.box(i), s.box(j)
    cells = [src_box]
    for _level in range(depth):
        surviving: list[Box] = []
        for cell in cells:
            for child in _split_box(cell, s.space):
                if _image_gap(f, child, jbox) > 0.0:
                    continue
                pts = child.lo_arr + offsets * (child.hi_arr - child.lo_arr)
                wit = _witness(pts, eval_points(f, pts), src_box, jbox, s.space)
                if wit is not None:
                    return wit
                surviving.append(child)
        if not surviving:
            return _pair_distance_lb(f, src_box, jbox, s, s.cube_width / (1 << depth))
        cells = surviving
    return None


def _image_gap(f: MapSpec, cell: Box, target: Box) -> float:
    """Certified lower bound on dist(f(cell), target) from one enclosure."""
    pieces = split_lift(eval_box(f, Direction.FORWARD, cell))
    return min(set_distance_lb(p, target) for p in pieces)


def _pair_distance_lb(
    f: MapSpec,
    src: Box,
    target: Box,
    s: Subdivision,
    tol: float,
    max_cells: int = 4096,
) -> float:
    """Certified lower bound on dist(f(src), target), within ``tol`` of truth.

    Branch and bound: cells of src are scored by the enclosure gap of their
    image (a lower bound) against the gap at their center point (an upper
    bound); the smallest lower bound is refined until the two meet.
    """

    def bounds(cell: Box) -> tuple[float, float]:
        lb = _image_gap(f, cell, target)
        center = eval_point(f, Direction.FORWARD, cell.center)
        ub = point_box_distance_lb(center, target) + 1e-15
        return lb, ub

    lb0, ub0 = bounds(src)
    best_ub = ub0
    counter = 0
    heap = [(lb0, counter, src)]
    processed = 0
    while heap and processed < max_cells:
        lb, _, cell = heapq.heappop(heap)
        if best_ub - lb <= tol:
            return lb
        processed += 1
        for child in _split_box(cell, s.space):
            clb, cub = bounds(child)
            best_ub = min(best_ub, cub)
            counter += 1
            heapq.heappush(heap, (clb, counter, child))
    return heap[0][0] if heap else lb0


def delta_bound(g: TransitionGraph, allow_uncertain: bool = False) -> float:
    """Largest pseudo-orbit defect the graph can absorb.

    Any delta-pseudo-orbit with delta below this value has an itinerary whose
    consecutive cubes are never a provably-empty pair. With no empty pair at
    all, every delta works, encoded as the space diameter.
    """
    if g.uncertain and not allow_uncertain:
        raise UncertainEdgesError(
            f"{len(g.uncertain)} uncertain edges; refine further or pass "
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
        return bool(g.witnesses.get((0, 0)))

    def reach(adjacency) -> int:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in adjacency(i):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen)

    forward = reach(g.successors)
    back: dict[int, list[int]] = {}
    for (i, j) in g.witnesses:
        back.setdefault(j, []).append(i)
    backward = reach(lambda i: back.get(i, ()))
    return forward == count and backward == count
