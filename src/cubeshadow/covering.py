"""Covering certificates: rigorous Markovian-intersection checks.

A certificate proves that the image of a horizontal strip of a source
rectangle stretches across a target rectangle along the target's exit
axis (both end faces land strictly beyond, on opposite sides) while the
whole strip image stays strictly inside the target on every other axis.
The check runs in the target's own chart through interval enclosures, so
a recorded certificate can always be re-verified from its stored data.

Charts here are deliberately modest: a rectangle is an axis box optionally
rotated about its own center by an orthonormal frame.  That is enough to
align with the expanding/contracting directions of a hyperbolic linear
map; anything the restricted chart cannot decide is reported Inconclusive
rather than guessed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._intervals import mat_interval, widen
from .dynamics import (
    Direction,
    MapSpec,
    eval_box,
    jacobian,
    lift_points,
    map_parts,
    residual_range,
)
from .errors import MismatchedChainError, NotEndomorphismError, UncertainEdgesError
from .geometry import Box, Space, Subdivision, check_bounds, json_pairs, json_value, json_values
from .transition import PairRows, TransitionGraph, code_pairs, pair_array, pair_keys

_ORTHO_TOL = 1e-9


@functools.lru_cache(maxsize=64)
def _frame_array(frame: tuple[tuple[float, ...], ...] | None, n: int) -> np.ndarray:
    """A square frame (None: the n x n identity) as a read-only array,
    checked orthonormal once per frame."""
    m = np.eye(n) if frame is None else np.array(frame, dtype=float)
    if not np.allclose(m @ m.T, np.eye(n), atol=_ORTHO_TOL):
        raise ValueError("frame rows must be orthonormal")
    m.setflags(write=False)
    return m


def _check_rectangles(lo: np.ndarray, hi: np.ndarray, frame) -> np.ndarray:
    """The Rectangle checks on stacked (k, n) bounds in one frame, which is
    returned as an array: positive widths, orthonormal n x n frame rows."""
    n = lo.shape[-1]
    if np.any(hi <= lo):
        raise ValueError("rectangle must have positive volume on every axis")
    if frame is not None and (len(frame) != n or any(len(row) != n for row in frame)):
        raise ValueError(f"frame must be {n}x{n}")
    return _frame_array(frame, n)


@dataclass(frozen=True)
class Rectangle:
    """A box, optionally rotated about its center.

    ``box`` gives the side ranges; with a ``frame`` (orthonormal rows) the
    ambient set is the box rotated about its own center, the frame rows
    acting as the rectangle's axes.  Axis 0 is the exit axis, the one that
    plays the expanding role (``expansion_frame`` puts the expanding row
    first); its two end faces are the rectangle's horizontal faces.
    """

    box: Box
    frame: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        _check_rectangles(self.box.lo_arr[None], self.box.hi_arr[None], self.frame)

    @property
    def n(self) -> int:
        return self.box.n

    @property
    def frame_arr(self) -> np.ndarray:
        return _frame_array(self.frame, self.n)

    def shifted(self, t: np.ndarray) -> "Rectangle":
        """The same rectangle translated by the ambient vector t."""
        box = Box(tuple(self.box.lo_arr + t), tuple(self.box.hi_arr + t), self.box.space)
        return Rectangle(box, self.frame)

    @property
    def center(self) -> tuple[float, ...]:
        return self.box.center

    @property
    def half_widths(self) -> np.ndarray:
        return 0.5 * (self.box.hi_arr - self.box.lo_arr)

    def ambient_bounding_halfwidths(self) -> np.ndarray:
        """Per-ambient-axis half extent of the (possibly rotated) set."""
        return np.abs(self.frame_arr.T) @ self.half_widths

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        """Chart coordinates (absolute, box-aligned) to ambient points."""
        c = np.array(self.center)
        return c + (np.atleast_2d(coords) - c) @ self.frame_arr

    def contains_point(self, p, tol: float = 0.0) -> bool:
        c = np.array(self.center)
        u = self.frame_arr @ (np.asarray(p, dtype=float) - c)
        return bool(np.all(np.abs(u) <= self.half_widths + tol))

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k ambient points uniform in the rectangle."""
        u = rng.uniform(-1.0, 1.0, size=(k, self.n)) * self.half_widths
        c = np.array(self.center)
        return c + u @ self.frame_arr

    def to_json(self) -> dict:
        # The format still names the exit axis and face label: always 0 and +1.
        return {
            "box": {"lo": list(self.box.lo), "hi": list(self.box.hi),
                    "space": self.box.space.value},
            "exit_axis": 0,
            "orientation": 1,
            "frame": None if self.frame is None else [list(r) for r in self.frame],
        }


def rectangle_from_json(data: dict) -> Rectangle:
    data = json_value("rectangle", data, dict)
    for key, want in (("exit_axis", 0), ("orientation", 1)):
        if json_value(f"rectangle {key}", data[key], int) != want:
            raise ValueError(f"rectangle {key} must be the integer {want}, not {data[key]!r}")
    b, frame = json_value("rectangle box", data["box"], dict), data.get("frame")
    box = Box(json_values("rectangle lo", b["lo"]), json_values("rectangle hi", b["hi"]),
              json_value("rectangle space", b["space"], Space))
    if frame is not None:
        frame = tuple(json_values("rectangle frame", r)
                      for r in json_values("rectangle frame", frame, list))
    return Rectangle(box, frame)


@dataclass(frozen=True)
class CoveringConfig:
    depth: int = 6                    # dyadic strip search depth along the exit axis
    min_margin: float = 1e-9          # quantified strictness for every inequality
    allow_uncertain: bool = False


@dataclass(frozen=True)
class Inconclusive:
    """Not a certificate and not a disproof: the restricted chart failed."""

    reason: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class CoveringCertificate:
    source: Rectangle
    target: Rectangle
    h_range: tuple[float, float]
    exit_margin: float
    confinement_margin: float
    orientation: int  # +1 when the strip's low end face lands below the target

    def __post_init__(self) -> None:
        if not (self.exit_margin > 0.0 and self.confinement_margin > 0.0):
            raise ValueError("certificate margins must be strictly positive")

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "h_range": list(self.h_range),
            "exit_margin": self.exit_margin,
            "confinement_margin": self.confinement_margin,
            "orientation": self.orientation,
        }


def certificate_from_json(data: dict) -> CoveringCertificate:
    data = json_value("certificate", data, dict)
    o = json_value("certificate orientation", data["orientation"], int)
    if o not in (1, -1):
        raise ValueError(f"certificate orientation must be the integer 1 or -1, not {o!r}")
    return CoveringCertificate(
        source=rectangle_from_json(data["source"]),
        target=rectangle_from_json(data["target"]),
        h_range=json_values("certificate h_range", data["h_range"], length=2),
        exit_margin=json_value("certificate exit_margin", data["exit_margin"]),
        confinement_margin=json_value("certificate confinement_margin", data["confinement_margin"]),
        orientation=o,
    )


def certificate_margin(c: CoveringCertificate) -> float:
    """Robustness radius: any g with sup_x |g(x) - f(x)|_2 below this value
    admits the same certified covering with the same strip, because every
    enclosure face shifts by at most that distance in the target chart."""
    return min(c.exit_margin, c.confinement_margin)


def _mv(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for every row of x, M one matrix or one per row (see mat_interval)."""
    return np.matmul(mat, x[..., None])[..., 0]


class _ChartImages:
    """Interval images of strip pieces in the targets' centered charts, for a
    batch of source/target rectangle pairs: boxes [lo[k], hi[k]] in frames
    fs[k] onto boxes [dst_lo[k], dst_hi[k]] in frames fd[k].

    v = M u + o + Fd r, with u the source chart offsets, M = Fd A Fs^T,
    o covering the affine offset and the integer lift shift, r the
    nonlinearity residual over the strip's ambient bounding box.  Every
    product is one matrix product per pair (stacked matmul), so a pair's
    bits do not depend on the batch it is checked in.
    """

    def __init__(self, f: MapSpec, lo, hi, fs, dst_lo, dst_hi, fd):
        self.f, self.fs, self.fd = f, fs, fd
        # Rectangle.center and .half_widths, row by row.
        self.c_src, c_dst = 0.5 * (lo + hi), 0.5 * (dst_lo + dst_hi)
        self.half, self.dst_half = 0.5 * (hi - lo), 0.5 * (dst_hi - dst_lo)
        self.lo_e, self.hi_e = lo[:, 0], hi[:, 0]
        parts = map_parts(f)
        self.mat = np.matmul(np.matmul(self.fd, parts.a), self.fs.transpose(0, 2, 1))
        shift = lift_points(f, Direction.FORWARD, self.c_src) - c_dst
        shift = np.round(shift) if f.space is Space.TORUS else np.zeros_like(shift)
        self.offset = _mv(self.fd, _mv(parts.a, self.c_src) + parts.b - shift - c_dst)

    @classmethod
    def of(cls, f: MapSpec, srcs: list[Rectangle], dsts: list[Rectangle]) -> "_ChartImages":
        """The chart of rectangle pairs: their boxes and frames, stacked."""
        keys = (lambda r: r.box.lo, lambda r: r.box.hi, lambda r: r.frame_arr)
        return cls(f, *(np.array([key(r) for r in rs]) for rs in (srcs, dsts) for key in keys))

    def strips_on_exit_sides(self, h0, h1) -> bool:
        """Whether every [h0[k], h1[k]] is a nondegenerate sub-range of the
        exit side of source k."""
        return bool(np.all((self.lo_e <= h0) & (h0 < h1) & (h1 <= self.hi_e)))

    def strip_box(self, rows, h0, h1) -> tuple[np.ndarray, np.ndarray]:
        """Ambient bounding boxes of strips [h0, h1] of sources ``rows``."""
        c = self.c_src[rows]
        mid, half = c.copy(), self.half[rows].copy()
        mid[:, 0] = 0.5 * (h0 + h1)
        half[:, 0] = 0.5 * (h1 - h0)
        # Chart center of the strip, then rotate out to ambient extents.
        fs = self.fs[rows]
        amb_mid = c + np.matmul((mid - c)[:, None, :], fs)[:, 0, :]
        amb_half = _mv(np.abs(fs).transpose(0, 2, 1), half)
        return amb_mid - amb_half, amb_mid + amb_half

    def image_interval(self, rows, u_lo, u_hi, amb_lo, amb_hi):
        lo, hi = mat_interval(self.mat[rows], u_lo, u_hi)
        r_lo, r_hi = residual_range(self.f, Direction.FORWARD, amb_lo, amb_hi)
        moved = np.any((r_lo != 0.0) | (r_hi != 0.0), axis=-1)
        if np.any(moved):
            d_lo, d_hi = mat_interval(self.fd[rows], r_lo, r_hi)
            lo = np.where(moved[:, None], lo + d_lo, lo)
            hi = np.where(moved[:, None], hi + d_hi, hi)
        return widen(lo + self.offset[rows], hi + self.offset[rows])

    def verdicts(self, rows, h0, h1, min_margin: float):
        """Check strip [h0[j], h1[j]] of source rows[j] across its target, for
        every j: whether it certifies, its margin shortfall (the exit margin
        when the exit fails, else the smaller margin), its exit and
        confinement margins and its orientation."""
        c_e = self.c_src[rows, 0]
        u_hi = self.half[rows].copy()
        u_lo = -u_hi
        u_lo[:, 0] = h0 - c_e
        u_hi[:, 0] = h1 - c_e
        amb_lo, amb_hi = self.strip_box(rows, h0, h1)

        def face(val: np.ndarray):
            """The exit-coordinate range of the image of one end face."""
            lo, hi = u_lo.copy(), u_hi.copy()
            lo[:, 0] = hi[:, 0] = val
            return (b[:, 0] for b in self.image_interval(rows, lo, hi, amb_lo, amb_hi))

        # The minus face is the low end of the strip, the plus face the high end.
        minus_lo, minus_hi = face(u_lo[:, 0])
        plus_lo, plus_hi = face(u_hi[:, 0])
        dst_half = self.dst_half[rows]
        tgt = dst_half[:, 0]
        # straight: minus face strictly below the target, plus face above
        straight = np.minimum(-tgt - minus_hi, plus_lo - tgt)
        crossed = np.minimum(minus_lo - tgt, -tgt - plus_hi)
        geo = np.where(straight >= crossed, 1, -1)
        exit_margin = np.where(geo > 0, straight, crossed)

        strip_lo, strip_hi = self.image_interval(rows, u_lo, u_hi, amb_lo, amb_hi)
        sides = np.minimum(strip_lo + dst_half, dst_half - strip_hi)
        sides[:, 0] = math.inf
        conf = sides.min(axis=1)
        conf = np.where(np.isinf(conf), exit_margin, conf)
        exits = ~(exit_margin < min_margin)
        shortfall = np.where(exits, np.minimum(exit_margin, conf), exit_margin)
        return exits & ~(conf < min_margin), shortfall, exit_margin, conf, geo


@dataclass(frozen=True)
class StripRows:
    """Covering verdicts as columns: pair k certifies on strip [h0[k], h1[k]]
    with its margins and orientation, unless ``reasons[k]`` says why not."""

    h0: np.ndarray
    h1: np.ndarray
    exit_margin: np.ndarray
    confinement_margin: np.ndarray
    orientation: np.ndarray
    reasons: tuple[str | None, ...]

    def results(self, srcs, dsts) -> list[CoveringCertificate | Inconclusive]:
        """Row k as the certificate of srcs[k] covering dsts[k], or Inconclusive."""
        columns = (self.h0, self.h1, self.exit_margin, self.confinement_margin, self.orientation)
        return [
            Inconclusive(why) if why else CoveringCertificate(src, dst, (h0, h1), e, c, int(o))
            for src, dst, why, h0, h1, e, c, o in zip(srcs, dsts, self.reasons,
                                                      *(x.tolist() for x in columns))
        ]


def _strip_rows(
    f: MapSpec, chart: _ChartImages, cfg: CoveringConfig, strip: tuple[float, float] | None
) -> StripRows:
    """The covering core: the chart's fit checks, then the strip search
    (or the pinned strip) for every pair, as in ``check_coverings``."""
    count = len(chart.c_src)
    if f.space is Space.TORUS:
        for frames, half in ((chart.fs, chart.half), (chart.fd, chart.dst_half)):
            if np.any(2.0 * _mv(np.abs(frames).transpose(0, 2, 1), half) >= 0.5):
                raise ValueError("rectangle too large for a single torus chart")
    else:
        lo, hi = chart.strip_box(np.arange(count), chart.lo_e, chart.hi_e)
        lo, hi = eval_box(
            f, Direction.FORWARD, np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
        )
        slack = 1e-9
        if np.any(lo < -slack) or np.any(hi > 1.0 + slack):
            raise NotEndomorphismError(
                f"{f.descriptor} maps the source rectangle outside the unit cube"
            )
    found = np.zeros((5, count))  # the StripRows columns, row by row
    best = [(-math.inf, 0, 0)] * count
    open_rows = np.arange(count)
    for d in range(cfg.depth + 1 if strip is None else 1):
        if not len(open_rows):
            break
        if strip is None:
            pieces = 1 << d
            ks = np.arange(pieces)
            lo_e = chart.lo_e[open_rows, None]
            step = (chart.hi_e[open_rows, None] - lo_e) / pieces
            h0, h1 = lo_e + ks * step, lo_e + (ks + 1) * step
            h1[:, -1] = chart.hi_e[open_rows]
            h0, h1 = h0.ravel(), h1.ravel()
        else:
            pieces, (h0, h1) = 1, (np.full(count, float(v)) for v in strip)
            if not chart.strips_on_exit_sides(h0, h1):
                raise ValueError("strip must be a nondegenerate sub-range of the exit side")
        ok, shortfall, *columns = chart.verdicts(
            np.repeat(open_rows, pieces), h0, h1, cfg.min_margin
        )
        ok, shortfall = ok.reshape(-1, pieces), shortfall.reshape(-1, pieces)
        done, first = ok.any(axis=1), ok.argmax(axis=1)
        picks = np.flatnonzero(done) * pieces + first[done]
        found[:, open_rows[done]] = np.array([h0, h1, *columns])[:, picks]
        # The first strip of the row with the largest shortfall so far; a
        # pinned strip reports its own.
        worst = shortfall.argmax(axis=1)
        for j in np.flatnonzero(~done):
            r, k = open_rows[j], int(worst[j])
            if shortfall[j, k] > best[r][0] or strip is not None:
                best[r] = (float(shortfall[j, k]), d, k)
        open_rows = open_rows[~done]
    reasons: list[str | None] = [None] * count
    for r in open_rows.tolist():
        shortfall, d, k = best[r]
        reasons[r] = (
            f"prescribed strip failed; margin shortfall {shortfall:.3e}" if strip is not None
            else f"no strip certified to depth {cfg.depth}; best margin shortfall "
                 f"{shortfall:.3e} at depth {d} piece {k}"
        )
    return StripRows(*found, tuple(reasons))


def check_chain(f: MapSpec, lo, hi, frame, space: Space, cyclic: bool, cfg) -> StripRows:
    """check_coverings along a chain of boxes [lo[k], hi[k]] in one frame,
    k covering k + 1 (and the last the first when ``cyclic``), without
    building a Rectangle: the Box and Rectangle checks run on the arrays."""
    check_bounds(lo, hi, space)
    steps = len(lo) - (not cyclic)
    frames = np.repeat(_check_rectangles(lo, hi, frame)[None], steps, axis=0)
    ends = np.roll(np.arange(len(lo)), -1)[:steps]
    chart = _ChartImages(f, lo[:steps], hi[:steps], frames, lo[ends], hi[ends], frames)
    return _strip_rows(f, chart, cfg, None)


def check_coverings(
    f: MapSpec,
    srcs: list[Rectangle],
    dsts: list[Rectangle],
    cfg: CoveringConfig | None = None,
    strip: tuple[float, float] | None = None,
) -> list[CoveringCertificate | Inconclusive]:
    """Search dyadic strips of every srcs[k] for a certified covering of dsts[k].

    Strips are visited by increasing depth, left to right; the first one
    satisfying both the exit and the confinement condition wins, so the
    result is deterministic. Failure is Inconclusive, never a disproof:
    a chart outside the restricted family might still certify the pair.
    All pairs still open at a depth are checked in one batch, and a
    pair's verdict is the one it gets alone.

    ``strip`` pins the check to one given h-range instead of searching,
    e.g. to re-certify a nearby map on the strip a certificate recorded.
    """
    cfg = cfg or CoveringConfig()
    if not srcs:
        return []
    for src, dst in zip(srcs, dsts):
        if not (f.n == src.n == dst.n):
            raise ValueError("map and rectangles must share a dimension")
        if src.box.space is not dst.box.space:
            raise ValueError("rectangles must live in the same space")
    return _strip_rows(f, _ChartImages.of(f, srcs, dsts), cfg, strip).results(srcs, dsts)


def check_covering(
    f: MapSpec,
    src: Rectangle,
    dst: Rectangle,
    cfg: CoveringConfig | None = None,
    strip: tuple[float, float] | None = None,
) -> CoveringCertificate | Inconclusive:
    """check_coverings for one pair."""
    return check_coverings(f, [src], [dst], cfg, strip)[0]


def verify_certificate(
    f: MapSpec, cert: CoveringCertificate, cfg: CoveringConfig | None = None
) -> bool:
    """Re-check a stored certificate from scratch on its recorded strip,
    which must lie on the source's exit side."""
    cfg = cfg or CoveringConfig()
    chart = _ChartImages.of(f, [cert.source], [cert.target])
    h0, h1 = np.array([cert.h_range]).T
    if not chart.strips_on_exit_sides(h0, h1):
        return False
    ok, _, exit_margin, conf, geo = chart.verdicts([0], h0, h1, cfg.min_margin)
    tol = 1e-12
    return bool(
        ok[0]
        and geo[0] == cert.orientation
        and exit_margin[0] >= cert.exit_margin - tol
        and conf[0] >= cert.confinement_margin - tol
    )


# --- chained certification --------------------------------------------------

# Rectangles are always anchored on edge witnesses; certificates and failure
# reports still name the placement so their artifact format is unchanged.
_POLICY = "anchored"


Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class ChainedCertificate:
    """Covering certificates over a transition graph, one per translation class.

    ``classes`` holds (representative pair, certificate); certified edge k
    is code ``edge_codes[k]`` = i * count + j, of class ``edge_classes[k]``
    (``edge_class`` maps pairs to classes). When f commutes with the grid
    translations (f(x + t) = f(x) + A t mod 1, A integer), edge (i, j)
    is the translate of (0, j - A i) and shares its class; otherwise each
    edge is its own class. ``certificates`` is the per-edge view.

    ``excluded_boundary`` holds the CertifiedNonempty edges whose cube
    intersection has no interior at this resolution (witness clearance 0,
    e.g. cubes touching at a corner): no rectangles inside the two cubes
    can have intersecting images, so they are excluded and reported rather
    than certified. Its keys are the pair set, its ``codes`` the sorted codes.
    """

    map_id: str
    subdivision: Subdivision
    classes: tuple[tuple[Pair, CoveringCertificate], ...]
    edge_codes: np.ndarray
    edge_classes: np.ndarray
    excluded_boundary: PairRows

    def __eq__(self, other) -> bool:
        return isinstance(other, ChainedCertificate) and self.to_json() == other.to_json()

    @property
    def edge_class(self) -> PairRows:
        return PairRows(self.edge_codes, self.subdivision.count, self.edge_classes.item)

    @property
    def certificates(self) -> PairRows:
        """Certified edge -> its class certificate translated into the edge's
        cubes, built on lookup: the source rectangle moves by the offset from
        the representative's source cube to cube i, the target by the offset
        between the target cubes (which is A t mod 1 for the class)."""
        return PairRows(self.edge_codes, self.subdivision.count, self._certificate)

    def _certificate(self, k: int) -> CoveringCertificate:
        s = self.subdivision
        pair = divmod(self.edge_codes.item(k), s.count)
        rep, cert = self.classes[self.edge_classes[k]]
        if rep == pair:
            return cert
        t_src = s.box(pair[0]).lo_arr - s.box(rep[0]).lo_arr
        t_dst = s.box(pair[1]).lo_arr - s.box(rep[1]).lo_arr
        dh = float(t_src[0])
        return replace(cert, source=cert.source.shifted(t_src), target=cert.target.shifted(t_dst),
                       h_range=(cert.h_range[0] + dh, cert.h_range[1] + dh))

    def margin(self) -> float:
        return min(certificate_margin(c) for _, c in self.classes)

    def to_json(self) -> dict:
        count = self.subdivision.count
        return {
            "map_id": self.map_id,
            "subdivision": self.subdivision.to_json(),
            "policy": _POLICY,
            "classes": [
                {"pair": list(rep), "certificate": c.to_json()} for rep, c in self.classes
            ],
            "certificates": dict(
                zip(pair_keys(self.edge_codes, count), self.edge_classes.tolist())
            ),
            "excluded_boundary": pair_array(self.excluded_boundary.codes, count).tolist(),
            "margin": self.margin(),
        }


@dataclass(frozen=True)
class FailureReport:
    map_id: str
    total_edges: int
    certified: int
    failures: tuple[tuple[int, int, str], ...]
    excluded_boundary: PairRows

    def to_json(self) -> dict:
        rows = self.excluded_boundary
        return {
            "map_id": self.map_id,
            "policy": _POLICY,
            "total_edges": self.total_edges,
            "certified": self.certified,
            "failures": [list(f) for f in self.failures],
            "excluded_boundary": pair_array(rows.codes, rows.count).tolist(),
        }


@functools.lru_cache(maxsize=64)
def expansion_frame(f: MapSpec) -> tuple[np.ndarray, np.ndarray] | None:
    """Orthonormal frame rows sorted by decreasing |eigenvalue| of Df.

    None when the spectrum is complex: the restricted rectangle charts
    have nothing to align to. For non-symmetric derivatives the rows are
    the orthonormalized eigenbasis, expansion direction kept exact.
    Cached per map, so both arrays are read-only.
    """
    d = jacobian(f, (0.5,) * f.n)
    vals, vecs = np.linalg.eig(d)
    if np.abs(np.asarray(vals).imag).max() > 1e-12:
        return None
    vals = np.asarray(vals).real
    vecs = np.asarray(vecs).real
    order = np.argsort(-np.abs(vals))
    basis = vecs[:, order]
    q, r = np.linalg.qr(basis)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    rows, vals = q.T, vals[order]
    rows.flags.writeable = vals.flags.writeable = False
    return rows, vals


def frame_coupling(f: MapSpec, rows: np.ndarray) -> float:
    """c = |row_u . A . row_s|, the (Schur) frame's |u <- s| entry of A, zero
    for a normal A; anchored pairs and step chains both size for it."""
    return abs(float(rows[0] @ map_parts(f).a @ rows[-1]))


def _anchored_pair(
    s: Subdivision, witness, frame: tuple[tuple[float, ...], ...] | None, shape: np.ndarray
) -> tuple[Rectangle, Rectangle]:
    """Source/target rectangles centered on an interior witness and its
    image, with chart half-widths rho * shape for the largest rho that
    keeps both inside their cubes."""
    # clearance >= max(|F|^T shape) * rho keeps the ranges inside the cube, hence [0,1].
    fit = float(np.max(np.sum(np.abs(_frame_array(frame, len(shape))) * shape[:, None], axis=0)))
    half = 0.999 * witness.clearance / fit * shape
    src, dst = (
        Rectangle(Box(tuple(c - half), tuple(c + half), s.space), frame)
        for c in (np.array(witness.point), np.array(witness.image))
    )
    return src, dst


def certify_chained(
    f: MapSpec,
    s: Subdivision,
    g: TransitionGraph,
    cfg: CoveringConfig | None = None,
) -> ChainedCertificate | FailureReport:
    """Attempt a covering certificate for every certifiable nonempty edge.

    Each class representative gets its own rectangle pair centered on its
    witness and the witness's image, shaped by the expansion frame, and
    one strip search; the other edges of its class are its translates, a
    covering relation being carried over by the conjugating translation.
    An edge whose class fails gets its own strip search, so a failure
    report names each edge's own reason. Boundary-only edges are excluded
    and listed.
    """
    cfg = cfg or CoveringConfig()
    if g.uncertain_count and not cfg.allow_uncertain:
        raise UncertainEdgesError(
            f"{g.uncertain_count} uncertain edges; refine the graph or allow_uncertain"
        )
    hint = expansion_frame(f)
    frame, shape = None, np.ones(f.n)
    if hint is not None:
        rows, vals = hint
        if np.abs(vals[0]) > 1.0 + 1e-9 and f.n >= 2:
            frame = tuple(tuple(float(v) for v in row) for row in rows)
            coupling = frame_coupling(f, rows)
            # In the frame A is [[lam_u, c], [0, lam_s]]: this stable side
            # keeps lam_u * h - c * h_s - h at (3/4)(lam_u - 1) h or more.
            if coupling > 0.0:
                shape[-1] = min(1.0, (abs(vals[0]) - 1.0) / (4.0 * coupling))

    count = s.count
    is_interior = g.clearances > 0.0
    interior = g.witness_codes[is_interior]
    # The edge whose certificate each edge borrows: its class
    # representative when that has an interior witness, else itself.
    reps = g.class_codes(interior)
    reps = np.where(np.isin(reps, interior), reps, interior)

    def search(code: int) -> CoveringCertificate | Inconclusive:
        src, dst = _anchored_pair(s, g.witnesses[divmod(code, count)], frame, shape)
        return check_covering(f, src, dst, cfg)

    # Each distinct representative is searched once, in order of first
    # use, and numbered as a class in that order.  A representative is an
    # edge of its own class, so when one fails the result is a failure
    # report, and only then do the other edges of its class search alone.
    uniq, first_use, rep_of = np.unique(reps, return_index=True, return_inverse=True)
    by_use = np.argsort(first_use)
    classes = [(divmod(code, count), search(code)) for code in uniq[by_use].tolist()]
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[by_use] = np.arange(len(uniq))
    edge_classes = rank[rep_of]
    failed = np.flatnonzero([not cert for _, cert in classes])
    failures: list[tuple[int, int, str]] = []
    for k in np.flatnonzero(np.isin(edge_classes, failed)).tolist():
        code, rep = int(interior[k]), int(reps[k])
        result = classes[edge_classes[k]][1] if rep == code else search(code)
        if not result:
            failures.append((*divmod(code, count), result.reason))
    excluded = PairRows(g.witness_codes[~is_interior], count)

    if failures or not len(interior):
        return FailureReport(
            map_id=f.descriptor,
            total_edges=g.nonempty_count,
            certified=len(interior) - len(failures),
            failures=tuple(failures or [(-1, -1, "no interior-witnessed edges to certify")]),
            excluded_boundary=excluded,
        )
    return ChainedCertificate(
        map_id=f.descriptor,
        subdivision=s,
        classes=tuple(classes),
        edge_codes=interior,
        edge_classes=edge_classes,
        excluded_boundary=excluded,
    )


@dataclass(frozen=True)
class ChainedAudit:
    """What ``audit_chained`` re-checked, and every disagreement it found."""

    classes: int
    certified: int
    excluded: int
    problems: tuple[str, ...]


def _rect_in_cube(r: Rectangle, cube: Box) -> bool:
    """Whether the (rotated) rectangle lies in the closed cube, up to a lattice shift."""
    c = np.array(r.center)
    if cube.space is Space.TORUS:
        c -= np.round(c - np.array(cube.center))
    half = r.ambient_bounding_halfwidths()
    return bool(np.all(c - half >= cube.lo_arr) and np.all(c + half <= cube.hi_arr))


def audit_chained(
    f: MapSpec, g: TransitionGraph, body: dict, cfg: CoveringConfig | None = None
) -> ChainedAudit:
    """Re-check a stored chained certificate (its JSON body) against g.

    Every class certificate is replayed from scratch, and its rectangles
    must lie in the cubes its representative pair names. Every
    interior-witnessed edge of g must be certified, and the class each
    edge names must be its translation class: the edge and the class's
    pair must share a class representative, derived here rather than read
    from the file. The excluded edges must be exactly the boundary-only
    edges of g. The stored keys and pairs are compared with the ones g's
    columns give as whole sets and lists; only those that differ are
    parsed one by one.
    """
    cfg = cfg or CoveringConfig()
    s = g.subdivision
    count = s.count
    problems: list[str] = []
    if g.uncertain_count and not cfg.allow_uncertain:
        problems.append(f"graph has {g.uncertain_count} uncertain edges")

    reps: list[int] = []  # each class's pair code; -1 when it is not a cube pair
    margins = []
    for k, entry in enumerate(json_value("classes", body["classes"], list)):
        entry = json_value(f"class {k}", entry, dict)
        i, j = json_values(f"class {k} pair", entry["pair"], int, length=2)
        cert = certificate_from_json(entry["certificate"])
        margins.append(certificate_margin(cert))
        if not (0 <= i < count and 0 <= j < count):
            reps.append(-1)
            problems.append(f"class {k}: pair {(i, j)} is not a cube pair")
            continue
        reps.append(i * count + j)
        if not (_rect_in_cube(cert.source, s.box(i)) and _rect_in_cube(cert.target, s.box(j))):
            problems.append(f"class {k}: rectangles leave the cubes of pair {(i, j)}")
        if not verify_certificate(f, cert, cfg):
            problems.append(f"class {k}: covering fails re-checking")
    least, margin = min(margins, default=None), json_value("margin", body["margin"])
    if margin != least:
        problems.append(f"stored margin {margin!r} != class minimum {least!r}")

    is_interior = g.clearances > 0.0
    interior, boundary = g.witness_codes[is_interior], g.witness_codes[~is_interior]
    entries = json_value("certificates", body["certificates"], dict)
    json_values("certificates", list(entries.values()), int)
    keys = pair_keys(interior, count)
    stored = np.fromiter(map(entries.__contains__, keys), bool, len(keys))
    extra: list[Pair] = []  # stored edges that are not interior-witnessed
    if len(entries) != stored.sum():
        known = set(keys)
        for key in entries:
            if key not in known:
                try:
                    i, j = map(int, key.split(","))
                except ValueError:
                    raise ValueError(f"certificate key {key!r} is not a pair \"i,j\"") from None
                if key != f"{i},{j}":  # "0, 0" or "00,0" would alias the edge (0, 0)
                    raise ValueError(f"certificate key {key!r} is not the canonical \"{i},{j}\"")
                extra.append((i, j))
    for pair in code_pairs(interior[~stored], count):
        problems.append(f"edge {pair}: interior-witnessed but not certified")
    for pair in sorted(extra):
        problems.append(f"edge {pair}: certified but not an interior-witnessed graph edge")
    # The pair code of the class each edge names; -1 for none or a bad index.
    ks = map(entries.get, keys, itertools.repeat(-1))
    named = np.fromiter(map(dict(enumerate(reps)).get, ks, itertools.repeat(-1)), np.int64)
    edges, named = interior[stored], named[stored]
    agree = (named >= 0) & (g.class_codes(edges) == g.class_codes(np.maximum(named, 0)))
    for i, j in code_pairs(edges[~agree], count):
        problems.append(f"edge {(i, j)}: class {entries[f'{i},{j}']} is not its translation class")

    listed = body["excluded_boundary"]
    flat, excluded = json_pairs("excluded_boundary", listed), len(listed)
    if flat != tuple(pair_array(boundary, count).ravel().tolist()):
        want, have = set(code_pairs(boundary, count)), set(map(tuple, listed))
        for pair in sorted(have - want):
            problems.append(f"edge {pair}: listed as excluded but not a boundary-only graph edge")
        for pair in sorted(want - have):
            problems.append(f"edge {pair}: boundary-only graph edge missing from excluded_boundary")
        excluded = len(have)
    return ChainedAudit(
        classes=len(reps),
        certified=int(agree.sum()),
        excluded=excluded,
        problems=tuple(problems),
    )


# --- composition ------------------------------------------------------------


@dataclass(frozen=True)
class ChainValidity:
    source: Rectangle
    target: Rectangle
    length: int


def compose_chain(certs) -> ChainValidity:
    """Validate that consecutive certificates link exactly.

    cert_k.target must equal cert_{k+1}.source bit for bit; a valid chain
    guarantees an orbit visiting every rectangle in order (each covering
    pulls a full-width strip of its target back into its source).
    """
    certs = list(certs)
    if not certs:
        raise ValueError("empty certificate chain")
    for k, (a, b) in enumerate(zip(certs, certs[1:])):
        if a.target != b.source:
            raise MismatchedChainError(
                f"chain link {k}: target of certificate {k} differs from "
                f"source of certificate {k + 1}"
            )
    return ChainValidity(source=certs[0].source, target=certs[-1].target,
                         length=len(certs))


__all__ = [
    "Rectangle",
    "CoveringConfig",
    "CoveringCertificate",
    "Inconclusive",
    "ChainedCertificate",
    "ChainedAudit",
    "FailureReport",
    "ChainValidity",
    "check_covering",
    "check_coverings",
    "certificate_margin",
    "audit_chained",
    "certify_chained",
    "compose_chain",
    "verify_certificate",
    "expansion_frame",
    "rectangle_from_json",
    "certificate_from_json",
]
