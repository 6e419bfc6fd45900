"""Pseudo-orbits, itineraries, and certified finite-window shadowing.

The pipeline: generate (or splice) a pseudo-orbit, read off its cube
itinerary against a transition graph, erect a chain of covering
rectangles anchored at the pseudo-orbit points, and localize the true
orbit threading them.  For the exactly-affine map kinds the final point
is solved in closed form over the rationals, because a float orbit is
meaningless at these window lengths: the expanding eigenvalue amplifies
one ulp past unit size within a few dozen steps, so any point meant to
be iterated 100 steps must be exact from the start.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .covering import (
    ChainedCertificate,
    CoveringCertificate,
    CoveringConfig,
    Rectangle,
    check_coverings,
    expansion_frame,
)
from .dynamics import (
    Direction,
    MapSpec,
    eval_box,
    eval_point,
    eval_points,
    jacobian,
    lift_points,
    map_parts,
    wrap_points,
)
from .errors import (
    BrokenChainError,
    DeltaTooLargeError,
    FixedPointTolUnreachedError,
    NoSurvivingCellError,
    NotHyperbolicError,
    NotInvertibleError,
    UncertifiedTransitionError,
)
from .exact import (
    EigenDirections,
    ExactAffine,
    IntVec,
    eigen_directions,
    exact_step,
    minimal_period,
    solve,
    supports_exact,
    to_fracs,
    to_ints,
)
from .geometry import Box, Space, Subdivision, cubes_of_points
from .transition import TransitionGraph, build_graph, delta_bound, find_path


# --- perturbation modes -----------------------------------------------------

@dataclass(frozen=True)
class RoundToGrid:
    """Snap every image to the dyadic 2^-m grid (roundoff-style noise)."""

    m: int


@dataclass(frozen=True)
class UniformNoise:
    """Seeded uniform noise in the ball of radius just under delta."""

    seed: int


@dataclass(frozen=True)
class Drift:
    """Constant push of norm just under delta in a fixed direction."""

    direction: tuple[float, ...]


_HEADROOM = 1.0 - 1e-6


# --- pseudo-orbits ----------------------------------------------------------

@dataclass(frozen=True)
class PseudoOrbit:
    """A delta-pseudo-orbit: consecutive images miss by less than delta.

    ``points[j]`` holds the orbit point at time ``lo + j``.  Periodic
    orbits are indexed from 0 and store whole periods; the wrap step obeys
    the same defect bound.  Construct through pseudo_orbit() or
    generate_pseudo_orbit(), which verify the bound against the map; the
    dataclass itself checks shape only.

    ``known_itinerary``: spliced orbits carry their cube sequence
    explicitly because their delta is deliberately cube-scale, far above
    any graph separation bound; itinerary() validates it by membership
    instead of applying the delta gate.
    """

    points: tuple[tuple[float, ...], ...]
    delta: float
    space: Space
    lo: int = 0
    periodic: int | None = None
    known_itinerary: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("pseudo-orbit needs at least one point")
        n = len(self.points[0])
        if any(len(p) != n for p in self.points):
            raise ValueError("pseudo-orbit points must share one dimension")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.periodic is not None:
            if self.periodic < 1 or len(self.points) % self.periodic:
                raise ValueError("period must be >= 1 and divide the length")
            if self.lo != 0:
                raise ValueError("periodic pseudo-orbits are indexed from 0")

    @property
    def n(self) -> int:
        return len(self.points[0])

    @property
    def hi(self) -> int:
        return self.lo + len(self.points) - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def point(self, k: int) -> tuple[float, ...]:
        if self.periodic is not None:
            return self.points[k % len(self.points)]
        if not (self.lo <= k <= self.hi):
            raise IndexError(f"time {k} outside window {self.window}")
        return self.points[k - self.lo]

    def to_json(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "delta": self.delta,
            "space": self.space.value,
            "lo": self.lo,
            "periodic": self.periodic,
            "known_itinerary": (
                None if self.known_itinerary is None else list(self.known_itinerary)
            ),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k"] + [f"y_{d + 1}" for d in range(self.n)])
        for j, p in enumerate(self.points):
            writer.writerow([self.lo + j] + [repr(v) for v in p])
        return buf.getvalue()


def pseudo_orbit_from_json(data: dict) -> PseudoOrbit:
    itin = data.get("known_itinerary")
    return PseudoOrbit(
        points=tuple(tuple(float(v) for v in p) for p in data["points"]),
        delta=float(data["delta"]),
        space=Space(data["space"]),
        lo=int(data.get("lo", 0)),
        periodic=data.get("periodic"),
        known_itinerary=None if itin is None else tuple(itin),
    )


def _nearest_lift(space: Space, d: np.ndarray) -> np.ndarray:
    """The differences d as errors: on the torus every coordinate is taken
    mod 1 in [-1/2, 1/2), the difference to the nearest lift."""
    if space is Space.TORUS:
        return (d + 0.5) % 1.0 - 0.5
    return d


def _step_errors(f: MapSpec, p: PseudoOrbit) -> np.ndarray:
    """Nearest-lift errors f(y_k) - y_{k+1} of every stored step (cyclic
    when periodic), one row per step, in one batch evaluation."""
    pts = np.asarray(p.points, dtype=float)
    ends = np.roll(pts, -1, axis=0)[: len(pts) - (p.periodic is None)]
    return _nearest_lift(p.space, eval_points(f, pts[: len(ends)]) - ends)


def step_defects(f: MapSpec, p: PseudoOrbit) -> list[float]:
    """dist(f(y_k), y_{k+1}) for every stored step (cyclic if periodic)."""
    return [float(np.linalg.norm(d)) for d in _step_errors(f, p)]


def _worst_defect_above(f: MapSpec, p: PseudoOrbit, delta: float) -> float | None:
    """p's worst step defect when it breaks the bound delta (every defect
    below delta, or exactly 0 when delta is 0), else None."""
    worst = max(step_defects(f, p), default=0.0)
    ok = worst == 0.0 if delta == 0.0 else worst < delta
    return None if ok else worst


def pseudo_orbit(
    f: MapSpec,
    points,
    delta: float,
    lo: int = 0,
    periodic: int | None = None,
    known_itinerary=None,
) -> PseudoOrbit:
    """Construct a PseudoOrbit, verifying the defect bound at every step."""
    p = PseudoOrbit(
        points=tuple(tuple(float(v) for v in q) for q in points),
        delta=float(delta),
        space=f.space,
        lo=lo,
        periodic=periodic,
        known_itinerary=None if known_itinerary is None else tuple(known_itinerary),
    )
    worst = _worst_defect_above(f, p, p.delta)
    if worst is not None:
        raise ValueError(
            f"step defect {worst} is not below the stated delta {p.delta}"
        )
    return p


def _unit(direction) -> np.ndarray:
    v = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0:
        raise ValueError("drift direction must be nonzero")
    return v / norm


def generate_pseudo_orbit(
    f: MapSpec,
    x0,
    delta: float,
    N: int,
    mode,
) -> PseudoOrbit:
    """Run the map N steps with per-step perturbation in the chosen mode.

    Invertible maps get a two-sided window [-N, N]; others (and the exact
    delta = 0 orbit, whose float inverse would leave roundtrip residue)
    get [0, N].  Backward points are chosen so the defining forward
    inequality holds by construction: y_prev = f^-1(y - perturbation).
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    if len(x0) != f.n:
        raise ValueError(f"x0 has dimension {len(x0)}, map needs {f.n}")
    rng = (
        np.random.default_rng(mode.seed) if isinstance(mode, UniformNoise) else None
    )
    delta_eff = delta * _HEADROOM

    def noise_vec() -> np.ndarray:
        if isinstance(mode, Drift):
            return delta_eff * _unit(mode.direction)
        vec = rng.normal(size=f.n)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            return np.zeros(f.n)
        return vec / norm * delta_eff * rng.random() ** (1.0 / f.n)

    def snap(q: np.ndarray) -> np.ndarray:
        grid = float(2 ** mode.m)
        return np.round(q * grid) / grid

    forward = [tuple(x0)]
    y = x0
    for _ in range(N):
        img = eval_point(f, Direction.FORWARD, y)
        if delta == 0.0:
            y = img
        elif isinstance(mode, RoundToGrid):
            y = wrap_points(f.space, snap(img))
        else:
            y = wrap_points(f.space, img + noise_vec())
        forward.append(tuple(y))

    backward: list[tuple[float, ...]] = []
    if f.invertible and delta > 0.0:
        y = x0
        for _ in range(N):
            if isinstance(mode, RoundToGrid):
                prev = snap(eval_point(f, Direction.INVERSE, y))
            else:
                prev = eval_point(f, Direction.INVERSE, y - noise_vec())
            prev = wrap_points(f.space, np.asarray(prev, dtype=float))
            backward.append(tuple(prev))
            y = prev
        backward.reverse()

    p = PseudoOrbit(
        points=tuple(backward) + tuple(forward),
        delta=delta,
        space=f.space,
        lo=-len(backward),
    )
    worst = _worst_defect_above(f, p, delta)
    if worst is not None:
        raise ValueError(
            f"mode {mode!r} produced step defect {worst}, not below delta {delta}; "
            "grid snapping needs delta above the grid half-diagonal times the "
            "map's expansion"
        )
    return p


# --- itineraries ------------------------------------------------------------

@dataclass(frozen=True)
class Itinerary:
    """Cube indices visited by a pseudo-orbit, aligned with its window."""

    indices: tuple[int, ...]
    subdivision: Subdivision
    lo: int = 0
    periodic: int | None = None


def itinerary(
    p: PseudoOrbit,
    s: Subdivision,
    g: TransitionGraph,
    allow_uncertain: bool = False,
) -> Itinerary:
    """Cube sequence of the pseudo-orbit, validated against the graph.

    With delta below the graph's separation bound, consecutive cubes
    cannot form a provably-empty pair; if one does anyway the graph is
    unsound and BrokenChainError reports it.  A pseudo-orbit carrying an
    explicit known_itinerary skips the gate and validates membership.
    ``allow_uncertain`` is passed to delta_bound: uncertain edges then
    count as nonempty instead of stopping the gate.
    """
    if s.space is not p.space:
        raise ValueError("subdivision and pseudo-orbit live on different spaces")
    if p.known_itinerary is not None:
        return _checked_itinerary(p, s, g, p.known_itinerary)
    bound = delta_bound(g, allow_uncertain=allow_uncertain)
    if not p.delta < bound:
        raise DeltaTooLargeError(
            f"delta {p.delta} is not below the separation bound {bound}"
        )
    idx = tuple(cubes_of_points(s, p.points).tolist())
    return _checked_itinerary(p, s, g, idx)


def _checked_itinerary(
    p: PseudoOrbit,
    s: Subdivision,
    g: TransitionGraph,
    idx: tuple[int, ...],
) -> Itinerary:
    """The itinerary idx of p once no step crosses a certified-empty edge.

    A declared itinerary (p's known_itinerary) must also name cubes that
    hold their points; BrokenChainError otherwise.
    """
    cubes = np.asarray(idx, dtype=int)
    if p.known_itinerary is not None:
        if len(idx) != len(p.points):
            raise ValueError("itinerary length mismatch")
        outside = ~_in_cubes(s, cubes, np.asarray(p.points, dtype=float), tol=1e-12)
        if outside.any():
            j = int(np.argmax(outside))
            raise BrokenChainError(f"point {j} is not in its declared cube {idx[j]}")
    ends = np.roll(cubes, -1) if p.periodic is not None else cubes[1:]
    empty = g.certified_empty(cubes[: len(ends)], ends)
    if empty.any():
        j = int(np.argmax(empty))
        raise BrokenChainError(
            f"itinerary step {j} crosses edge ({idx[j]}, {ends[j]}) certified empty"
        )
    return Itinerary(
        indices=tuple(idx), subdivision=s, lo=p.lo, periodic=p.periodic
    )


def _in_cubes(s: Subdivision, cubes: np.ndarray, points: np.ndarray, tol: float):
    """Whether each point lies in its closed cube (mod 1 on the torus), up to tol."""
    bad = cubes[(cubes < 0) | (cubes >= s.count)]
    if bad.size:
        raise ValueError(f"flat index {bad[0]} out of range")
    lo = np.stack(np.unravel_index(cubes, (s.side,) * s.n), axis=-1) / float(s.side)
    hi = lo + s.cube_width
    if s.space is Space.CUBE:
        return np.all((lo - tol <= points) & (points <= hi + tol), axis=1)
    points = points - np.floor(points)
    inside = [(lo - tol <= points + t) & (points + t <= hi + tol) for t in (-1.0, 0.0, 1.0)]
    return np.all(np.logical_or.reduce(inside), axis=1)


# --- per-step covering chains -----------------------------------------------

@dataclass(frozen=True)
class ShadowConfig:
    depth: int = 96               # max bisection splits at the window center
    fp_tol: float = 1e-9          # periodic fixed-point residual tolerance
    radius_factor: float = 2.5    # tracking tube radius in units of delta


_CELL_FLOOR = 1e-12    # stop splitting below this cell width
_DELTA_FLOOR = 1e-7    # effective delta for near-exact orbits
_MARGIN_PAD = 0.2      # chain margin in units of the worst defect
_MIN_MARGIN = 1e-12    # strictness of every step-chain covering inequality


@dataclass(frozen=True)
class StepChain:
    """Covering rectangles anchored at the pseudo-orbit points."""

    rectangles: tuple[Rectangle, ...]
    certificates: tuple[CoveringCertificate, ...]


def _chain_half_widths(
    lam_u: float,
    lam_s: float,
    coupling: float,
    du: list[float],
    ds: list[float],
    pad: float,
    cyclic: bool,
) -> tuple[list[float], list[float]]:
    """Per-step strip half-widths leaving every covering margin >= pad.

    Exit wants lam_u*hu[k] - c*hs[k] - du[k] >= hu[k+1] + pad, where c is
    the |u <- s| coupling of the (Schur) frame, zero for a normal matrix;
    confinement wants lam_s*hs[k] + ds[k] <= hs[k+1] - pad.  The sweeps
    meet both with equality-plus-pad and converge geometrically in the
    cyclic case.
    """
    steps = len(du)
    count = steps if cyclic else steps + 1
    hu = [pad / (lam_u - 1.0)] * count
    hs = [pad / (1.0 - lam_s)] * count
    for _ in range(200):
        changed = False
        for k in range(steps - 1, -1, -1):
            need = (hu[(k + 1) % count] + du[k] + coupling * hs[k] + pad) / lam_u
            if need > hu[k] * (1.0 + 1e-15):
                hu[k] = need
                changed = True
        for k in range(steps):
            need = lam_s * hs[k] + ds[k] + pad
            if need > hs[(k + 1) % count] * (1.0 + 1e-15):
                hs[(k + 1) % count] = need
                changed = True
        if not changed:
            break
    return hu, hs


def step_chain(f: MapSpec, p: PseudoOrbit) -> StepChain:
    """Build and verify the covering chain along the pseudo-orbit.

    Rectangle k is eigen-aligned and centered at y_k; every consecutive
    pair (cyclically for periodic orbits) is re-checked with interval
    arithmetic rather than trusted from the sizing recursion.
    """
    frame_info = expansion_frame(f)
    if frame_info is None:
        raise UncertifiedTransitionError(
            f"{f.descriptor} has no real expanding/contracting splitting"
        )
    rows, vals = frame_info
    lam_u, lam_s = abs(float(vals[0])), abs(float(vals[-1]))
    if lam_u <= 1.0 + 1e-9 or lam_s >= 1.0 - 1e-9:
        raise UncertifiedTransitionError(
            f"{f.descriptor} is not hyperbolic, covering chains cannot close"
        )
    defects = _step_errors(f, p)
    row_u, row_s = np.asarray(rows[0]), np.asarray(rows[-1])
    du = [abs(float(row_u @ d)) for d in defects]
    ds = [abs(float(row_s @ d)) for d in defects]
    pad = _MARGIN_PAD * max(max(du + ds, default=0.0), _DELTA_FLOOR)
    coupling = abs(float(row_u @ map_parts(f).a @ row_s))
    hu, hs = _chain_half_widths(
        lam_u, lam_s, coupling, du, ds, pad, cyclic=p.periodic is not None
    )
    frame = tuple(tuple(float(v) for v in row) for row in np.asarray(rows))
    # Exit axis first: expansion_frame orders rows by |eigenvalue| desc.
    pts, hu, hs = np.asarray(p.points, dtype=float), np.array(hu), np.array(hs)
    half = np.repeat(np.maximum(hu, hs)[:, None], p.n, axis=1)
    half[:, 0], half[:, -1] = hu, hs
    rects = [
        Rectangle(Box(tuple(lo), tuple(hi), p.space), frame)
        for lo, hi in zip((pts - half).tolist(), (pts + half).tolist())
    ]
    srcs, dsts = rects[:-1], rects[1:]
    if p.periodic is not None:
        srcs, dsts = rects, rects[1:] + rects[:1]
    certs = check_coverings(f, srcs, dsts, CoveringConfig(min_margin=_MIN_MARGIN))
    for k, res in enumerate(certs):
        if not isinstance(res, CoveringCertificate):
            raise UncertifiedTransitionError(
                f"step {p.lo + k}: covering of the next strip failed ({res.reason})"
            )
    return StepChain(rectangles=tuple(rects), certificates=tuple(certs))


# --- bisection localizer ----------------------------------------------------

def _window_times(f: MapSpec, p: PseudoOrbit) -> tuple[list[int], list[int]]:
    """Constraint times for localization around time 0 (cyclic twice over)."""
    if p.periodic is not None:
        span = 2 * len(p.points)
        fwd = list(range(1, span + 1))
        bwd = list(range(-1, -span - 1, -1)) if f.invertible else []
        return fwd, bwd
    return list(range(1, p.hi + 1)), list(range(-1, p.lo - 1, -1))


def _interval_dot(row: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    a = float(np.minimum(row * lo, row * hi).sum())
    b = float(np.maximum(row * lo, row * hi).sum())
    return a, b


def _tube(p: PseudoOrbit, r: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deviation bounds from y_k at time k: [-r, r], cut to the unit cube."""
    g_lo, g_hi = np.full(p.n, -r), np.full(p.n, r)
    if p.space is Space.CUBE:
        tgt = np.asarray(p.point(k), dtype=float)
        g_lo, g_hi = np.maximum(g_lo, -tgt), np.minimum(g_hi, 1.0 - tgt)
    return g_lo, g_hi


def _eigen_bands(
    f: MapSpec,
    p: PseudoOrbit,
    r: float,
    eig: EigenDirections,
    g0_lo: np.ndarray,
    g0_hi: np.ndarray,
) -> tuple:
    """Sharp survival test in the eigenframe of an exactly-affine 2D map.

    In eigen coordinates the deviation from the pseudo-orbit obeys two
    decoupled scalar affine recursions, so the tube constraint at each
    time pulls back to an exact interval condition on the time-0
    coordinates: no interval wrapping, pruning stays informative at
    every depth.  Forward constraints pin the expanding coordinate,
    backward ones the contracting coordinate; the opposite pullbacks
    only widen and are dropped.  [g0_lo, g0_hi] is the time-0 tube as
    deviations from y_0.  Returns the basis, the feasible box and the
    initial cell, both as (lo, hi) in (u, s) coordinates;
    NoSurvivingCellError when nothing is feasible.
    """
    basis = np.array(
        [[float(v) for v in eig.row_u], [float(v) for v in eig.row_s]]
    ).T
    functionals = np.linalg.inv(basis)
    defects = _step_errors(f, p)

    def defect(k: int) -> np.ndarray:
        # step defect e_k for the step k -> k+1, window- or cycle-indexed
        if p.periodic is not None:
            return defects[k % len(defects)]
        return defects[k - p.lo]

    incompatible = NoSurvivingCellError(
        "tracking tube constraints are incompatible; no orbit survives",
        deepest_surviving_depth=0,
    )
    if np.any(g0_lo > g0_hi):
        raise incompatible
    cell, band = [], []
    # u_k = lam_u^k u_0 + c_k with c_{k+1} = lam_u c_k + <l_u, e_k>;
    # s_{-k} = lam_s^-k s_0 + c_k with c_{k-1} = (c_k - <l_s, e_{k-1}>)/lam_s
    lams = (float(eig.lam_u), float(eig.lam_s))
    for row, lam, times in zip(functionals, lams, _window_times(f, p)):
        lo, hi = _interval_dot(row, g0_lo, g0_hi)
        cell.append((lo, hi))
        coef, c = 1.0, 0.0
        for k in times:
            if k > 0:
                c = lam * c + float(row @ defect(k - 1))
                coef *= lam
            else:
                c = (c - float(row @ defect(k))) / lam
                coef /= lam
            if not math.isfinite(coef) or abs(coef) > 1e120:
                break
            b_lo, b_hi = _interval_dot(row, *_tube(p, r, k))
            lo_k, hi_k = sorted(((b_lo - c) / coef, (b_hi - c) / coef))
            pad = 1e-12 * (abs(lo_k) + abs(hi_k)) + 1e-17
            lo, hi = max(lo, lo_k - pad), min(hi, hi_k + pad)
            if lo > hi:
                raise incompatible
        band.append((lo, hi))
    return basis, tuple(zip(*band)), tuple(zip(*cell))


def _tube_survival(f: MapSpec, p: PseudoOrbit, r: float):
    """Whether a time-0 cell's interval orbit meets every tube [y_k +- r].

    The cell is stepped as lifted arrays, not a Box: a tube of radius 1/2
    or more spans a full period of the torus.
    """
    fwd_times, bwd_times = _window_times(f, p)
    torus = p.space is Space.TORUS

    def survives(cl: list[float], ch: list[float]) -> bool:
        for direction, times in (
            (Direction.FORWARD, fwd_times), (Direction.INVERSE, bwd_times)
        ):
            cur_lo, cur_hi = np.array(cl), np.array(ch)
            for k in times:
                img_lo, img_hi = eval_box(f, direction, cur_lo, cur_hi)
                tgt = np.asarray(p.point(k), dtype=float)
                if torus:
                    shift = np.round(0.5 * (img_lo + img_hi) - tgt)
                    img_lo = img_lo - shift
                    img_hi = img_hi - shift
                cur_lo = np.maximum(img_lo - 1e-14, tgt - r)
                cur_hi = np.minimum(img_hi + 1e-14, tgt + r)
                if np.any(cur_lo > cur_hi):
                    return False
        return True

    return survives


def _bisect(lo: list[float], hi: list[float], survives, cfg: ShadowConfig):
    """Halve the widest axis of [lo, hi], keeping a half that survives."""
    if not survives(lo, hi):
        raise NoSurvivingCellError(
            "tracking tube is empty at the requested radius",
            deepest_surviving_depth=0,
        )
    splits = 0
    for _ in range(cfg.depth):
        widths = [b - a for a, b in zip(lo, hi)]
        axis = widths.index(max(widths))
        if widths[axis] <= _CELL_FLOOR:
            break
        mid = 0.5 * (lo[axis] + hi[axis])
        left_hi, right_lo = list(hi), list(lo)
        left_hi[axis] = right_lo[axis] = mid
        if survives(lo, left_hi):
            hi = left_hi
        elif survives(right_lo, hi):
            lo = right_lo
        else:
            # Interval wrapping can make a parent cell survive while both
            # children fail; stop refining at the last honest level rather
            # than overclaim emptiness.
            break
        splits += 1
    return lo, hi, splits


def _bisect_cell(
    f: MapSpec,
    p: PseudoOrbit,
    r: float,
    eig: EigenDirections | None,
    cfg: ShadowConfig,
    seed_box: Box | None = None,
) -> tuple[list[float], list[float], int]:
    """Refine the time-0 cell against the window's tracking tubes.

    A cell survives while its orbit enclosure meets every tube
    [y_k +- r]: forward images for k > 0, inverse images for k < 0
    (cyclically extended twice over for periodic orbits, which pins both
    eigendirections around the loop).  One bisection, two survival
    tests: maps with an eigen frame ``eig`` (the exactly-affine 2D maps)
    get the sharp eigenframe test, and the final eigen cell is mapped back
    to its axis hull; other kinds fall back to stepwise interval
    propagation, whose wrapping blurs but never unsoundly prunes.
    """
    # The time-0 tube as deviations from y_0, cut to the seed box and the
    # unit cube once for both tests.
    y0 = np.asarray(p.point(0), dtype=float)
    g_lo, g_hi = _tube(p, r, 0)
    if seed_box is not None:
        g_lo = np.maximum(g_lo, seed_box.lo_arr - y0)
        g_hi = np.minimum(g_hi, seed_box.hi_arr - y0)
    if eig is None:
        if p.space is Space.TORUS:
            # A tube of radius 1/2 or more wraps the circle; one period
            # around y_0 holds a lift of every point in it.
            g_lo, g_hi = np.maximum(g_lo, -0.5), np.minimum(g_hi, 0.5)
        t_lo, t_hi = y0 + g_lo, y0 + g_hi
        if seed_box is not None and np.any(t_lo > t_hi):
            raise NoSurvivingCellError(
                "seed box excludes the tracking tube", deepest_surviving_depth=0
            )
        return _bisect(t_lo.tolist(), t_hi.tolist(), _tube_survival(f, p, r), cfg)
    basis, (f_lo, f_hi), (lo, hi) = _eigen_bands(f, p, r, eig, g_lo, g_hi)

    def meets(c_lo: list[float], c_hi: list[float]) -> bool:
        return all(a <= b for a, b in zip(c_lo, f_hi)) and all(
            a >= b for a, b in zip(c_hi, f_lo)
        )

    lo, hi, splits = _bisect(list(lo), list(hi), meets, cfg)
    corners = [
        y0 + basis @ np.array([u, s]) for u in (lo[0], hi[0]) for s in (lo[1], hi[1])
    ]
    # The eigen cell's axis hull can poke past the constraint boxes it was
    # carved from; clamp so seeded surviving boxes nest.
    lo = np.maximum(np.min(corners, axis=0), y0 + g_lo)
    hi = np.minimum(np.max(corners, axis=0), y0 + g_hi)
    return np.minimum(lo, hi).tolist(), hi.tolist(), splits


# --- exact boundary-value solve ---------------------------------------------

def _integer_shifts(f: MapSpec, p: PseudoOrbit) -> np.ndarray:
    """Lattice shift of each lifted step: s_k = round(M y_k + c - y_{k+1}).

    The true shadow satisfies M x_k + c - x_{k+1} = s_k exactly with the
    same s_k, because both orbits stay within a few delta of each other,
    far below the rounding threshold of 1/2.  Cyclic orbits get the wrap
    step appended.
    """
    pts = np.asarray(p.points, dtype=float)
    ends = np.roll(pts, -1, axis=0)[: len(pts) - (p.periodic is None)]
    if p.space is not Space.TORUS:
        return np.zeros_like(ends)
    return np.round(lift_points(f, Direction.FORWARD, pts[: len(ends)]) - ends)


def _lift_map(f: MapSpec, p: PseudoOrbit, shifts, a: int, b: int) -> ExactAffine:
    """Exact map X_a -> X_b (a <= b) along the lift the shifts select.

    Composes the lift steps X_{k+1} = M X_k + c - s_k unreduced: the
    integer shifts keep every image on the branch nearest its pseudo-orbit
    point, and reducing offsets mod 1 (as ExactAffine.compose does on the
    torus) would move it.
    """
    step = exact_step(f, Direction.FORWARD)
    acc = ExactAffine.identity(p.n, wrap=False)
    for k in range(a, b):
        off = tuple(
            c - int(sk) * step.denom for c, sk in zip(step.offset, shifts[k - p.lo])
        )
        acc = ExactAffine(step.matrix, off, step.denom, wrap=False).compose(acc)
    return acc


def _cross_row(v):
    # cross(d, v) == 0 picks out d parallel to v; as a row functional.
    return (v[1], -v[0])


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _bvp_point(
    f: MapSpec, p: PseudoOrbit, shifts, eig: EigenDirections
) -> tuple[IntVec, int]:
    """Exact time-0 shadow point for 2D exactly-affine hyperbolic maps with
    eigen frame eig, as integer numerators over one denominator.

    Kills the expanding component of the deviation at the window's far
    end and the contracting component at its start: the finite-window
    boundary conditions under which the deviation recursion
    d_{k+1} = M d_k + e_k stays geometrically bounded both ways.  Two
    linear conditions on two unknown coordinates; one exact solve.
    """
    to_hi = _lift_map(f, p, shifts, 0, p.hi)
    to_lo = _lift_map(f, p, shifts, p.lo, 0).inverse()
    # w_u annihilates the contracting direction, w_s the expanding one;
    # each condition reads w . (M_k x + c_k) / D_k = w . y_k, y_k = a / b,
    # with w scaled to integers (which keeps its kernel).
    rows, rhs = [], []
    for w, end, k in (
        (_cross_row(eig.row_s), to_hi, p.hi),
        (_cross_row(eig.row_u), to_lo, p.lo),
    ):
        w = to_ints(w)[0]
        a, b = to_ints(p.point(k))
        rows.append(tuple(b * _dot(w, col) for col in zip(*end.matrix)))
        rhs.append(end.denom * _dot(w, a) - b * _dot(w, end.offset))
    try:
        return solve(tuple(rows), tuple(rhs))
    except NotInvertibleError:
        raise NotHyperbolicError("boundary-value system is singular") from None


# --- true orbits ------------------------------------------------------------

def _orbit(f: MapSpec, x, lo: int, hi: int) -> tuple[list[tuple], list[int] | None]:
    """The orbit of x at every time lo..hi (lo <= 0 <= hi) and, for exact
    points, its denominators: the one two-sided walk.

    A rational x on an exactly-affine map walks in integers through
    ExactAffine.orbit: the points are numerators over the returned
    denominators.  Anything else walks in floats through eval_point, with
    no denominators.  Both reduce mod 1 on the torus; time 0 is x itself.
    """
    if supports_exact(f) and all(isinstance(v, Fraction) for v in x):
        start, den = to_ints(x)
        nums, dens = exact_step(f).orbit(start, den, hi)
        if lo < 0:  # a non-invertible map has no inverse step to build
            back, back_dens = exact_step(f, Direction.INVERSE).orbit(start, den, -lo)
            nums, dens = back[:0:-1] + nums, back_dens[:0:-1] + dens
        return nums, dens
    start = tuple(float(v) for v in x)

    def walk(direction: Direction, steps: int) -> list[tuple]:
        pts = [start]
        for _ in range(steps):
            pts.append(tuple(eval_point(f, direction, pts[-1]).tolist()))
        return pts

    return walk(Direction.INVERSE, -lo)[:0:-1] + walk(Direction.FORWARD, hi), None


def true_orbit(f: MapSpec, x, lo: int, hi: int) -> list[tuple]:
    """The orbit of x (at time 0) at every time lo..hi, lo <= 0 <= hi.

    Exact rationals when x is rational and f has an exact affine form,
    floats through eval_point otherwise; both reduce mod 1 on the torus.
    Time 0 is x itself, unreduced.
    """
    orbit, dens = _orbit(f, x, lo, hi)
    if dens is None:
        return orbit
    return [to_fracs(y, d) for y, d in zip(orbit, dens)]


def _window_errors(p: PseudoOrbit, orbit: list[tuple], dens=None) -> list[float]:
    """Distance of orbit[j] to the pseudo-orbit point at time p.lo + j.

    With ``dens``, orbit[j] holds integer numerators over dens[j]: the
    difference is exact (a float point is a/b with b a power of two) and
    each coordinate rounds once, by int / int.
    """
    if dens is None:
        errors = _nearest_lift(p.space, np.subtract(orbit, p.points))
        return [float(np.linalg.norm(d)) for d in errors]
    torus = p.space is Space.TORUS
    out = []
    for k, (y, q) in enumerate(zip(orbit, dens), start=p.lo):
        d = []
        for v, c in zip(y, p.point(k)):
            a, b = c.as_integer_ratio()
            num, den = v * b - a * q, q * b
            if torus:  # nearest lift: subtract floor(num / den + 1/2)
                num -= (2 * num + den) // (2 * den) * den
            d.append(num / den)
        out.append(math.hypot(*d))
    return out


# --- results ----------------------------------------------------------------

@dataclass(frozen=True)
class ShadowResult:
    """A certified true-orbit point tracing the pseudo-orbit.

    ``point`` holds exact rationals for the exactly-affine kinds, floats
    otherwise.  eps_achieved is the recomputed max per-step distance.
    """

    point: tuple
    window: tuple[int, int]
    eps_achieved: float
    surviving_box: Box
    periodic: int | None = None
    minimal_period: int | None = None

    @property
    def point_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.point)

    @property
    def exact(self) -> bool:
        return isinstance(self.point[0], Fraction)

    def to_json(self) -> dict:
        return {
            "point": list(self.point_floats),
            "point_exact": (
                [f"{v.numerator}/{v.denominator}" for v in self.point]
                if self.exact
                else None
            ),
            "window": list(self.window),
            "eps_achieved": self.eps_achieved,
            "surviving_box": {
                "lo": list(self.surviving_box.lo),
                "hi": list(self.surviving_box.hi),
                "space": self.surviving_box.space.value,
            },
            "periodic": self.periodic,
            "minimal_period": self.minimal_period,
        }


def shadow_result_from_json(data: dict) -> ShadowResult:
    if data.get("point_exact"):
        point = tuple(Fraction(v) for v in data["point_exact"])
    else:
        point = tuple(float(v) for v in data["point"])
    sb = data["surviving_box"]
    return ShadowResult(
        point=point,
        window=(int(data["window"][0]), int(data["window"][1])),
        eps_achieved=float(data["eps_achieved"]),
        surviving_box=Box(
            tuple(float(v) for v in sb["lo"]),
            tuple(float(v) for v in sb["hi"]),
            Space(sb["space"]),
        ),
        periodic=data.get("periodic"),
        minimal_period=data.get("minimal_period"),
    )


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    max_err: float
    argmax_k: int
    errors: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "max_err": self.max_err,
            "argmax_k": self.argmax_k,
            "errors": list(self.errors),
        }


def verify_shadow(f: MapSpec, x, p: PseudoOrbit, eps: float) -> VerifyReport:
    """Ground-truth check: iterate x across the window, measure every error.

    Independent of all certification machinery.  Exact rational points on
    exactly-affine maps iterate exactly; everything else in float (whose
    own roundoff growth then honestly shows up in the profile).
    """
    errors = _window_errors(p, *_orbit(f, x, p.lo, p.hi))
    ks = list(range(p.lo, p.hi + 1))
    max_err = max(errors)
    argmax = ks[errors.index(max_err)]
    return VerifyReport(
        ok=max_err < eps,
        max_err=max_err,
        argmax_k=argmax,
        errors=tuple(errors),
    )


# --- the shadow operations --------------------------------------------------

def _localize(
    f: MapSpec,
    p: PseudoOrbit,
    cert: ChainedCertificate,
    g: TransitionGraph | None,
    allow_uncertain: bool,
    cfg: ShadowConfig,
    seed_box: Box | None = None,
) -> tuple[Box, int, EigenDirections | None]:
    """Gate p against the certificate and graph, then bisect its time-0 cell.

    Checks that the certificate is for f on p's space, that p's itinerary
    (see ``itinerary``, which ``allow_uncertain`` is passed to) crosses no
    certified-empty edge, and that the per-step covering chain closes;
    returns the surviving cell, the number of splits that carved it, and
    f's eigen frame (None without one), which decides the exact path.
    """
    s = cert.subdivision
    if s.space is not p.space:
        raise ValueError("certificate and pseudo-orbit live on different spaces")
    if cert.map_id != f.descriptor:
        raise ValueError(
            f"certificate is for {cert.map_id!r}, not {f.descriptor!r}"
        )
    if g is None:
        g = build_graph(f, s)
    itinerary(p, s, g, allow_uncertain)
    step_chain(f, p)
    eig = eigen_directions(f)
    r = cfg.radius_factor * max(p.delta, _DELTA_FLOOR)
    lo, hi, splits = _bisect_cell(f, p, r, eig, cfg, seed_box)
    return Box(tuple(lo), tuple(hi), p.space), splits, eig


def _measured(
    f: MapSpec, p: PseudoOrbit, point: tuple, eps: float, miss: str, splits: int,
    surviving: Box, periodic: int | None = None, minimal: int | None = None
) -> ShadowResult:
    """The result for point, whose errors over p's window must stay below
    eps: else NoSurvivingCellError, its message ``miss`` formatted with
    the achieved and the requested eps."""
    eps_achieved = max(_window_errors(p, *_orbit(f, point, p.lo, p.hi)))
    if eps_achieved >= eps:
        raise NoSurvivingCellError(
            miss.format(eps_achieved, eps), deepest_surviving_depth=splits
        )
    return ShadowResult(point, p.window, eps_achieved, surviving, periodic, minimal)


def shadow(
    f: MapSpec,
    p: PseudoOrbit,
    cert: ChainedCertificate,
    eps: float,
    g: TransitionGraph | None = None,
    allow_uncertain: bool = False,
    cfg: ShadowConfig | None = None,
    seed_box: Box | None = None,
) -> ShadowResult:
    """Find a true orbit point whose distance to p stays below eps windowwide.

    The chained certificate vouches that the map is coverable at cube
    scale; the per-step chain anchored on the pseudo-orbit proves an
    orbit threads the delta-scale tubes; bisection against those tubes
    localizes it and yields the surviving cell; for exactly-affine maps
    the point is then pinned by an exact boundary-value solve and its
    error profile is measured in rational arithmetic.  With
    ``allow_uncertain`` the itinerary gate counts the graph's uncertain
    edges as nonempty instead of refusing the graph.
    """
    cfg = cfg or ShadowConfig()
    surviving, splits, eig = _localize(f, p, cert, g, allow_uncertain, cfg, seed_box)

    if eig is not None:
        nums, den = _bvp_point(f, p, _integer_shifts(f, p), eig)
        if seed_box is not None and not seed_box.contains_point(
            [v / den for v in nums], tol=1e-15
        ):
            # The free boundary-value point can sit a hair outside a seed
            # box inherited from a longer window; the cell center keeps
            # the nesting contract, and its (slightly larger) error
            # profile is measured honestly below.
            nums, den = to_ints(surviving.center)
        if p.space is Space.TORUS:
            nums = tuple(v % den for v in nums)
        point: tuple = to_fracs(nums, den)
    else:
        point = tuple(wrap_points(p.space, np.array(surviving.center)).tolist())
    return _measured(
        f, p, point, eps, "best orbit achieves eps {}, not below requested {}",
        splits, surviving,
    )


def periodic_shadow(
    f: MapSpec,
    p: PseudoOrbit,
    cert: ChainedCertificate,
    eps: float,
    g: TransitionGraph | None = None,
    allow_uncertain: bool = False,
    cfg: ShadowConfig | None = None,
) -> ShadowResult:
    """Shadow a periodic pseudo-orbit by a genuinely periodic orbit.

    The cyclic covering chain composes to a self-covering of its first
    rectangle under f^P, which forces a fixed point of f^P inside the
    tube.  For exactly-affine maps that point solves a linear system over
    the rationals, making dist(f^P(x*), x*) exactly zero; other kinds
    refine by damped Newton down to cfg.fp_tol.
    """
    cfg = cfg or ShadowConfig()
    if p.periodic is None:
        raise ValueError("periodic_shadow needs a periodic pseudo-orbit")
    surviving, splits, _ = _localize(f, p, cert, g, allow_uncertain, cfg)
    P = len(p.points)

    if supports_exact(f):
        try:
            nums, den = _lift_map(f, p, _integer_shifts(f, p), 0, P).fixed_point()
        except NotInvertibleError:
            raise FixedPointTolUnreachedError(
                f"f^{P} has eigenvalue one; no isolated fixed point to converge to"
            ) from None
        if p.space is Space.TORUS:
            nums = tuple(v % den for v in nums)
        point = to_fracs(nums, den)
        mp = minimal_period(f, point, P)
    else:
        x = np.array(surviving.center)
        for _ in range(80):
            orbit = true_orbit(f, x, 0, P)
            residual = _nearest_lift(p.space, np.subtract(orbit[P], x))
            if float(np.linalg.norm(residual)) <= cfg.fp_tol:
                break
            jac = np.eye(f.n)
            for y in orbit[:P]:
                jac = jacobian(f, y) @ jac
            try:
                dx = np.linalg.solve(jac - np.eye(f.n), -residual)
            except np.linalg.LinAlgError:
                raise FixedPointTolUnreachedError(
                    "degenerate linearization of the period map"
                ) from None
            x = wrap_points(p.space, x + dx)
        else:
            raise FixedPointTolUnreachedError(
                f"Newton left residual above fp_tol {cfg.fp_tol}"
            )
        point = orbit[0]
        mp = None
    return _measured(
        f, p, point, eps, "periodic point achieves eps {}, not below {}",
        splits, surviving, p.periodic, mp,
    )


# --- specification splicing -------------------------------------------------

def specification_splice(
    f: MapSpec,
    g: TransitionGraph,
    segments,
    gap: int,
) -> PseudoOrbit:
    """Join true-orbit segments into one periodic pseudo-orbit.

    Between consecutive segments (cyclically) a certified cube path of at
    most ``gap`` edges bridges from the cube receiving the departing
    image to the next segment's starting cube; bridge waypoints are cube
    centers, maximizing clearance.  The result's delta is the measured
    worst defect (deliberately cube-scale, hence the explicit itinerary),
    and it is ready for periodic_shadow.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    segs = [[tuple(float(v) for v in q) for q in seg] for seg in segments]
    if not segs:
        raise ValueError("need at least one segment")
    s = g.subdivision
    if not all(segs):
        raise ValueError("segments must be nonempty")
    no_steps = np.empty((0, f.n))
    start = np.array([a for seg in segs for a in seg[:-1]] or no_steps)
    end = np.array([b for seg in segs for b in seg[1:]] or no_steps)
    for err in _nearest_lift(f.space, eval_points(f, start) - end):
        d = float(np.linalg.norm(err))
        if d > 1e-9:
            raise ValueError(
                f"segment step defect {d}; segments must be true orbit pieces"
            )
    cubes = cubes_of_points(s, [q for seg in segs for q in seg]).tolist()
    firsts = np.cumsum([0] + [len(seg) for seg in segs]).tolist()
    departs = eval_points(f, np.array([seg[-1] for seg in segs]))
    depart_cubes = cubes_of_points(s, departs).tolist()
    points: list[tuple[float, ...]] = []
    indices: list[int] = []
    for j, seg in enumerate(segs):
        points.extend(seg)
        indices.extend(cubes[firsts[j] : firsts[j + 1]])
        goal_cube = cubes[firsts[(j + 1) % len(segs)]]
        path = find_path(g, depart_cubes[j], goal_cube, max_len=gap)
        # The goal cube is represented by the next segment's own first
        # point, so only the earlier path cubes become center waypoints.
        for cube in path[:-1]:
            points.append(s.box(cube).center)
            indices.append(cube)
    cycle = PseudoOrbit(tuple(points), 0.0, f.space, periodic=len(points))
    delta = max(step_defects(f, cycle)) * (1.0 + 1e-9) + 1e-15
    return pseudo_orbit(
        f,
        points,
        delta,
        lo=0,
        periodic=len(points),
        known_itinerary=indices,
    )


# --- serialization helpers --------------------------------------------------

def orbit_csv(f: MapSpec, p: PseudoOrbit, result: ShadowResult) -> str:
    """CSV profile: time, pseudo-orbit point, shadow orbit point, error."""
    orbit, dens = _orbit(f, result.point, p.lo, p.hi)
    errors = _window_errors(p, orbit, dens)
    if dens is not None:
        orbit = [tuple(v / d for v in y) for y, d in zip(orbit, dens)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    n = p.n
    writer.writerow(
        ["k"]
        + [f"y_{d + 1}" for d in range(n)]
        + [f"x_{d + 1}" for d in range(n)]
        + ["err"]
    )
    for k, err, x in zip(range(p.lo, p.hi + 1), errors, orbit):
        writer.writerow(
            [k]
            + [repr(float(v)) for v in p.point(k)]
            + [repr(v) for v in x]
            + [repr(err)]
        )
    return buf.getvalue()
