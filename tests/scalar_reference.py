"""Scalar reference for the batched interval kernels and the graph refinement.

One box at a time in Python floats: an enclosure summed column by column
with the same outward nudges, lifts reduced to canonical ``Box`` pieces,
one ``set_distance_lb`` per piece, one sequential refinement per pair,
and one plain heap for the minimum gap; ``lift``, ``clearance`` and
``witness`` are the one-point forms of the map, of a point's clearance
in a box and of the best sample witness.  This is how the graph
refinement worked before its kernels were batched;
the tests compare the array kernels in ``cubeshadow.dynamics`` and
``cubeshadow.transition`` with it row for row, bit for bit, and check its
own soundness.  ``step_error`` is the one-pair form of shadowing's step
and window errors.  ``cubes_containing_point`` lists every cube whose
closure holds a point: the reference for the smallest-index cube lookup,
of which ``cube_of_point`` is the one-point call.
``materialised_graph`` builds the transition graph as dicts, every
translated row written out pair by pair, the way the graph was stored
before its rows became columns: each computed row against every target,
and every clearance and witness by the three-shift ``clearance`` and
``witness`` here, not by the kernels it is compared with.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from cubeshadow import transition
from cubeshadow.dynamics import Direction, eval_box, eval_point, eval_points, map_parts
from cubeshadow.geometry import Box, Space, cubes_of_points
from cubeshadow.transition import _NEAR_BAND, EdgeStatus, EdgeWitness

TWO_PI = 2.0 * math.pi
NUDGE_ULPS = 4


def widen_float(lo: float, hi: float, ulps: int = NUDGE_ULPS) -> tuple[float, float]:
    for _ in range(ulps):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _column(x) -> np.ndarray:
    """An (n,) point or bound as the (n, 1) column of a coordinate-major batch."""
    return np.asarray(x, dtype=float)[:, None]


def _grid(lo, hi, offsets: np.ndarray) -> np.ndarray:
    """The (n, samples) sample points lo + offsets * (hi - lo) of one box."""
    lo, hi = _column(lo), _column(hi)
    return lo + offsets * (hi - lo)


def sin_range(lo: float, hi: float) -> tuple[float, float]:
    """Enclosure of {sin(t) : t in [lo, hi]} for one interval."""
    lo = float(lo)
    hi = float(hi)
    if hi - lo >= TWO_PI:
        return -1.0, 1.0
    s_lo = min(np.sin(lo), np.sin(hi))
    s_hi = max(np.sin(lo), np.sin(hi))
    k_hi = np.ceil((lo - np.pi / 2.0) / TWO_PI)
    if np.pi / 2.0 + TWO_PI * k_hi <= hi:
        s_hi = 1.0
    k_lo = np.ceil((lo + np.pi / 2.0) / TWO_PI)
    if -np.pi / 2.0 + TWO_PI * k_lo <= hi:
        s_lo = -1.0
    s_lo, s_hi = widen_float(s_lo, s_hi)
    return max(-1.0, s_lo), min(1.0, s_hi)


def _product(m: np.ndarray, x: list[float]) -> list[float]:
    out = []
    for row in m.tolist():
        acc = x[0] * row[0]
        for j in range(1, len(x)):
            acc = acc + x[j] * row[j]
        out.append(acc)
    return out


def enclose(f, direction: Direction, lo, hi) -> tuple[list[float], list[float]]:
    """Outward enclosure of f over one lifted box [lo, hi]."""
    parts = map_parts(f, direction)
    lo = [float(v) for v in lo]
    hi = [float(v) for v in hi]
    a_lo = [p + q for p, q in zip(_product(parts.pos, lo), _product(parts.neg, hi))]
    a_hi = [p + q for p, q in zip(_product(parts.pos, hi), _product(parts.neg, lo))]
    pairs = [widen_float(a, b) for a, b in zip(a_lo, a_hi)]
    b = parts.b.tolist()
    a_lo = [p[0] + c for p, c in zip(pairs, b)]
    a_hi = [p[1] + c for p, c in zip(pairs, b)]
    out_lo, out_hi = a_lo, a_hi
    r = parts.residual
    if r is not None:
        x_lo, x_hi = (a_lo, a_hi) if direction is Direction.INVERSE else (lo, hi)
        r_lo = [0.0] * f.n
        r_hi = [0.0] * f.n
        for d, (c, src) in enumerate(zip(r.coef, r.src)):
            if c == 0.0:
                continue
            s_lo, s_hi = sin_range(
                math.nextafter(r.angular * x_lo[src], -math.inf),
                math.nextafter(r.angular * x_hi[src], math.inf),
            )
            term = (c * s_lo, c * s_hi) if c >= 0 else (c * s_hi, c * s_lo)
            r_lo[d], r_hi[d] = widen_float(*term, r.ulps)
        out_lo = [a + e for a, e in zip(a_lo, r_lo)]
        out_hi = [a + e for a, e in zip(a_hi, r_hi)]
    widened = [widen_float(a, b) for a, b in zip(out_lo, out_hi)]
    return [w[0] for w in widened], [w[1] for w in widened]


def lift(f, direction: Direction, x) -> list[float]:
    """f (or its inverse) at one point, not reduced: A x + b summed column
    by column, then the sine term, which the inverse reads off A x + b."""
    parts = map_parts(f, direction)
    x = [float(v) for v in x]
    y = [p + c for p, c in zip(_product(parts.a, x), parts.b.tolist())]
    r = parts.residual
    if r is not None:
        u = y if direction is Direction.INVERSE else x
        y = [v + c * float(np.sin(r.angular * u[src])) for v, c, src in zip(y, r.coef, r.src)]
    return y


def wrap(space: Space, y) -> list[float]:
    """A lifted point reduced mod 1 into [0, 1) on the torus."""
    if space is Space.CUBE:
        return [float(v) for v in y]
    return [0.0 if v - math.floor(v) == 1.0 else v - math.floor(v) for v in map(float, y)]


def clearance(p, lo, hi, space: Space) -> float:
    """Min distance of p to the boundary of the box [lo, hi], negative
    outside; on the torus each axis takes its best integer shift."""
    shifts = (-1.0, 0.0, 1.0) if space is Space.TORUS else (0.0,)
    return min(
        max(min((x + t) - a, b - (x + t)) for t in shifts)
        for x, a, b in zip(map(float, p), map(float, lo), map(float, hi))
    )


def witness(pts, images, src_lo, src_hi, t_lo, t_hi, space: Space) -> tuple[bool, int, float]:
    """Whether a sample's image lands in the target [t_lo, t_hi], the first
    sample of greatest min(source clearance, image clearance) among those,
    and that clearance (0 when none lands or the winner is on a face)."""
    best, score = 0, -math.inf
    for k, (p, y) in enumerate(zip(pts, images)):
        img = clearance(y, t_lo, t_hi, space)
        value = min(clearance(p, src_lo, src_hi, space), img) if img >= 0.0 else -math.inf
        if value > score:
            best, score = k, value
    return score > -math.inf, best, max(score, 0.0)


def split_lift(lift_lo, lift_hi, space: Space) -> list[Box]:
    """Reduce a lifted box to canonical boxes: at most 2 pieces per axis, 2^n total.

    On the cube the lift is clipped to [0,1]^n.  On the torus each axis is
    reduced modulo 1 and split where it crosses a glued face; an axis
    spanning width >= 1 becomes [0,1].
    """
    per_axis = []
    for a, b in zip(lift_lo, lift_hi):
        if space is Space.CUBE:
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
        boxes.append(Box(tuple(c[0] for c in combo), tuple(c[1] for c in combo), space))
    return boxes


def _axis_gap(alo, ahi, blo, bhi):
    return max(0.0, blo - ahi, alo - bhi)


def set_distance_lb(a: Box, b: Box) -> float:
    """Certified lower bound on the distance between two boxes.

    Exact per-axis gaps (wrapped on the torus) combined in the Euclidean
    norm, nudged down 2 ulps; 0 exactly when the boxes may intersect.
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
    return widen_float(math.sqrt(total), math.sqrt(total), 2)[0]


def point_distance(p, q, space: Space) -> float:
    """Euclidean distance, per-axis wrapped on the torus."""
    total = 0.0
    for x, y in zip(p, q):
        d = abs(float(x) - float(y))
        if space is Space.TORUS:
            d = d - math.floor(d)
            d = min(d, 1.0 - d)
        total += d * d
    return math.sqrt(total)


def step_error(space: Space, a, b) -> float:
    """Length of a - b for one pair of points, to the nearest lift of a on
    the torus: the rule shadowing's batched step and window errors apply."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if space is Space.TORUS:
        d = (d + 0.5) % 1.0 - 0.5
    return float(np.linalg.norm(d))


def point_box_distance_lb(p, b: Box) -> float:
    """Lower bound on dist(p, box): per-axis gaps like set_distance_lb."""
    coords = []
    for x in p:
        x = float(x)
        if b.space is Space.TORUS:
            x = x - math.floor(x)
        coords.append(min(max(x, 0.0), 1.0))
    return set_distance_lb(Box(tuple(coords), tuple(coords), b.space), b)


def image_gap(f, cell: Box, target: Box) -> float:
    """Certified lower bound on dist(f(cell), target) from one enclosure."""
    lo, hi = enclose(f, Direction.FORWARD, cell.lo, cell.hi)
    pieces = split_lift(lo, hi, f.space)
    return min(set_distance_lb(p, target) for p in pieces)


def center_bound(f, cell: Box, target: Box) -> float:
    """Distance from the image of the cell's center to the target, + 1e-15."""
    center = eval_point(f, Direction.FORWARD, cell.center)
    return point_box_distance_lb(center, target) + 1e-15


def split_box(box: Box) -> list[Box]:
    """The 2^n halves of a box; child ``mask`` is upper on axis a when bit a is set."""
    mids = [(lo + hi) / 2.0 for lo, hi in zip(box.lo, box.hi)]
    out = []
    n = len(box.lo)
    for mask in range(1 << n):
        lo = [box.lo[a] if not (mask >> a) & 1 else mids[a] for a in range(n)]
        hi = [mids[a] if not (mask >> a) & 1 else box.hi[a] for a in range(n)]
        out.append(Box(tuple(lo), tuple(hi), box.space))
    return out


def min_gap(f, s, gaps: dict, rel_tol: float = 2.0 ** -12) -> float:
    """The minimum of dist(f(C_i), C_j) over the pairs (i, j) of ``gaps``,
    from below: one heap of (lower bound, counter, cell, target) over the
    cells of every pair, each pair starting from C_i at its coarse gap.
    The least cell is popped and its children pushed at the larger of
    their image gap and its bound, until the least center bound is within
    ``rel_tol`` cube widths of the least bound in the heap; the result is
    capped at the near band, as ``min_empty_gap`` is."""
    tol = s.cube_width * rel_tol
    counter = itertools.count()
    heap = [(gap, next(counter), s.box(i), s.box(j)) for (i, j), gap in gaps.items()]
    heapq.heapify(heap)
    best_ub = math.inf
    while best_ub - heap[0][0] > tol:
        lb, _, cell, target = heapq.heappop(heap)
        for child in split_box(cell):
            best_ub = min(best_ub, center_bound(f, child, target))
            bound = max(image_gap(f, child, target), lb)
            heapq.heappush(heap, (bound, next(counter), child, target))
    return min(heap[0][0], _NEAR_BAND * s.cube_width)


def refine_pair(f, s, i: int, j: int, offsets: np.ndarray, depth: int):
    """Settle one uncertain pair: the witness; when it is empty, the least
    gap among the cells that closed it; or None."""
    src_box, jbox = s.box(i), s.box(j)
    cells, closing = [src_box], math.inf
    for _level in range(depth):
        surviving = []
        for cell in cells:
            for child in split_box(cell):
                gap = image_gap(f, child, jbox)
                if gap > 0.0:
                    closing = min(closing, gap)
                    continue
                pts = _grid(child.lo_arr, child.hi_arr, offsets)
                images = eval_points(f, pts.T).T
                hit, k, c = witness(
                    pts.T, images.T, src_box.lo, src_box.hi, jbox.lo, jbox.hi, s.space
                )
                if hit:
                    return EdgeWitness(tuple(pts[:, k]), tuple(images[:, k]), float(c))
                surviving.append(child)
        if not surviving:
            return closing
        cells = surviving
    return None


def refine_uncertain(f, s, pairs, offsets, depth, cubes) -> list[EdgeWitness | float | None]:
    """Drop-in for ``transition._refine_uncertain``: one pair after another."""
    return [refine_pair(f, s, i, j, offsets, depth) for i, j in pairs]


def cube_of_point(subdivision, p):
    """Flat index of the cube containing p; ties go to the smallest index:
    the one-point call of ``geometry.cubes_of_points``."""
    return int(cubes_of_points(subdivision, [p])[0])


def cubes_containing_point(subdivision, p):
    """Flat indices, ascending, of all cubes whose closure contains p.

    A coordinate on a grid hyperplane lies in both neighboring cubes (on
    the torus 0 and 1 are the same hyperplane), so up to 2^n cubes qualify.
    """
    side = subdivision.side
    per_axis = []
    for x in p:
        x = float(x)
        if subdivision.space is Space.TORUS:
            x = x - math.floor(x)
        t = x * side  # exact: side is a power of two
        j = math.floor(t)
        if t == j:
            if subdivision.space is Space.TORUS:
                per_axis.append(sorted({(j - 1) % side, j % side}))
            else:
                per_axis.append([c for c in (j - 1, j) if 0 <= c < side])
        else:
            per_axis.append([min(max(int(j), 0), side - 1)])
    return [subdivision.flat_index(combo) for combo in itertools.product(*per_axis)]


def _row_dicts(f, s, i, offsets, cubes, e_lo, e_hi):
    """One source cube: witnesses, uncertain targets, near-miss gaps, min gap."""
    gaps = transition._norm_lb(
        transition._lift_gaps(_column(e_lo), _column(e_hi), *cubes, s.space)
    )
    row_wit, row_unc, row_gaps, row_min = {}, set(), {}, math.inf
    empties = np.flatnonzero(gaps > 0.0)
    if empties.size:
        row_min = float(gaps[empties].min())
        for j in empties[gaps[empties] <= _NEAR_BAND * s.cube_width]:
            row_gaps[int(j)] = float(gaps[j])
    candidates = np.flatnonzero(gaps == 0.0)
    if candidates.size:
        lo_all, hi_all = cubes
        pts = _grid(lo_all[:, i], hi_all[:, i], offsets)
        images = eval_points(f, pts.T).T
        for j in candidates.tolist():
            h, k, c = witness(
                pts.T, images.T, lo_all[:, i], hi_all[:, i], lo_all[:, j], hi_all[:, j], s.space
            )
            if h:
                row_wit[(i, j)] = EdgeWitness(tuple(pts[:, k]), tuple(images[:, k]), float(c))
            else:
                row_unc.add(j)
    return row_wit, row_unc, row_gaps, row_min


def _translate_rows(f, s, index_matrix, witnesses, uncertain, empty_gaps) -> None:
    """Populate rows 1.. from row 0 by exact grid translation, pair by pair."""
    w = s.cube_width
    # Coordinate-major (n, count) multi-indices and their shifts A i.
    multis = s.multi_indices()
    shifts = index_matrix @ multis

    def row_targets(base_j):
        """(n, count, len(base_j)) multi-indices of the targets j0 + A i."""
        return (multis[:, None, base_j] + shifts[:, :, None]) % s.side

    base = sorted(witnesses.items())
    base_unc = sorted({j for (_, j) in uncertain})
    base_gaps = sorted({j: g for (_, j), g in empty_gaps.items()}.items())
    if base:
        tgt_multi = row_targets([j for (_, j), _ in base])
        tgt_flat = s.flat_indices(tgt_multi)
        base_pts = np.array([wit.point for _, wit in base])
        # Coordinate-major (n, count, len(base)) points, images and bounds.
        src_lo = (multis * w)[:, :, None]
        pts = base_pts.T[:, None, :] + src_lo
        images = eval_points(f, pts.reshape(s.n, -1).T).T.reshape(pts.shape)
        dst_lo = tgt_multi * w
        for i in range(1, s.count):
            for k in range(len(base)):
                pair = (i, int(tgt_flat[i, k]))
                c = min(
                    clearance(pts[:, i, k], src_lo[:, i, 0], src_lo[:, i, 0] + w, s.space),
                    clearance(images[:, i, k], dst_lo[:, i, k], dst_lo[:, i, k] + w, s.space),
                )
                if c < 0.0:
                    uncertain.add(pair)
                    continue
                witnesses[pair] = EdgeWitness(tuple(pts[:, i, k]), tuple(images[:, i, k]), c)
    for j0 in base_unc:
        targets = s.flat_indices(row_targets([j0]))[:, 0].tolist()
        uncertain.update((i, targets[i]) for i in range(1, s.count))
    for j0, gap in base_gaps:
        targets = s.flat_indices(row_targets([j0]))[:, 0].tolist()
        empty_gaps.update(((i, targets[i]), gap) for i in range(1, s.count))


def materialised_graph(f, s, samples_per_cube: int = 5, refine_depth: int = 6):
    """The transition graph as (witnesses, uncertain, empty_gaps,
    min_empty_gap): dicts and a set holding every pair, each near-miss
    pair's gap its row gap and each refined-empty pair's the one that
    closed it, and the least of the row gaps and those stored gaps,
    translated rows written out pair by pair."""
    offsets = transition._sample_offsets(s.n, samples_per_cube)
    cubes = transition._cube_bounds(s)
    witnesses, uncertain, empty_gaps, min_empty_gap = {}, set(), {}, math.inf
    index_matrix = transition.equivariant_index_matrix(f, s)
    rows = [0] if index_matrix is not None else list(range(s.count))
    e_lo, e_hi = eval_box(f, Direction.FORWARD, cubes[0][:, rows].T, cubes[1][:, rows].T)
    computed = [
        (i, *_row_dicts(f, s, i, offsets, cubes, e_lo[r], e_hi[r])) for r, i in enumerate(rows)
    ]
    open_pairs = [(i, j) for i, _, row_unc, _, _ in computed for j in sorted(row_unc)]
    refined = dict(zip(open_pairs, transition._refine_uncertain(
        f, s, open_pairs, offsets, refine_depth, cubes)))
    for i, row_wit, row_unc, row_gaps, row_min in computed:
        for j in sorted(row_unc):
            result = refined[(i, j)]
            if result is None:
                continue
            row_unc.discard(j)
            if isinstance(result, EdgeWitness):
                row_wit[(i, j)] = result
            else:
                row_gaps[j] = result
        witnesses.update(row_wit)
        uncertain.update((i, j) for j in row_unc)
        empty_gaps.update({(i, j): gap for j, gap in row_gaps.items()})
        min_empty_gap = min(min_empty_gap, row_min)
    min_empty_gap = min([min_empty_gap, *empty_gaps.values()])
    if index_matrix is not None:
        _translate_rows(f, s, index_matrix, witnesses, uncertain, empty_gaps)
    return witnesses, uncertain, empty_gaps, min_empty_gap


def graph_json(g, witnesses, uncertain, empty_gaps, min_empty_gap) -> dict:
    """The graph section of the materialised dicts, whose
    ``json.dumps(..., sort_keys=True)`` text ``TransitionGraph.to_json``
    must write; the header fields are g's."""
    s = g.subdivision
    edges = [
        [i, j, EdgeStatus.NONEMPTY.value,
         {"witness": list(w.point), "image": list(w.image), "clearance": w.clearance}]
        for (i, j), w in sorted(witnesses.items())
    ]
    edges += [[i, j, EdgeStatus.UNCERTAIN.value, None] for i, j in sorted(uncertain)]
    return {
        "map_id": g.map_id,
        "n": s.n,
        "m": s.m,
        "space": s.space.value,
        "samples_per_cube": g.samples_per_cube,
        "refine_depth": g.refine_depth,
        "edges": edges,
        "empty_pairs": "implicit",
        "min_empty_gap": None if math.isinf(min_empty_gap) else min_empty_gap,
        "near_empty_gaps": {f"{i},{j}": v for (i, j), v in sorted(empty_gaps.items())},
    }
