"""The three benchmark workloads and the checks on their outputs.

Each workload has a repeatable ``setup()`` and a one-off ``make_inputs()``
(both timed as set-up), an ``op(k)`` that runs operation ``k`` of a closed
loop with one client (timed), and a ``check(records)`` run after the timed
loop that returns one ``(operation, ok, reason)`` row per program call.
Every input is drawn from ``numpy.random.default_rng(seed)`` in
``make_inputs()``; the program receives only the generated inputs.

Workloads call cubeshadow through module attributes (``shadowing.shadow``,
``cli.main``) at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cubeshadow.cli as cli
import cubeshadow.covering as covering
import cubeshadow.dynamics as dynamics
import cubeshadow.exact as exact
import cubeshadow.geometry as geometry
import cubeshadow.oracle as oracle
import cubeshadow.shadowing as shadowing
import cubeshadow.transition as transition

CAT = "toral [[2,1],[1,1]]"
STANDARD = "standard K=0.3"
PERTURBED = "perturbed [[2,1],[1,1]] eta=0.001 freq=1"

# Tolerance on cube membership when re-checking stored witnesses: the stored
# point and image are floats the program computed with the same evaluator.
MEMBER_TOL = 1e-12


def source_digest(*dirs: Path) -> str:
    """sha256 over the Python sources under ``dirs``: the program and the
    benchmark code whose outputs must repeat byte for byte."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(d).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """cubeshadow.cli.main with its report line captured, not printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, (out.getvalue() + err.getvalue()).strip()


def _file_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _keep(out: Path, kept: Path) -> Path:
    """Move a finished output directory aside for the checks.

    Every operation writes to the same ``out`` because the artifacts embed
    the output path, and byte-identical reruns need identical configs."""
    if kept.exists():
        shutil.rmtree(kept)
    if out.exists():
        out.rename(kept)
    else:
        kept.mkdir(parents=True)
    return kept


@dataclass
class Record:
    """One timed operation: when it started, its latency, what the checks need."""

    start: float
    latency_s: float
    parts: dict = field(default_factory=dict)
    output_bytes: int = 0


# --- cat-certify ------------------------------------------------------------

class CatCertify:
    """CLI ``certify`` of the cat map at m=6, then CLI ``verify`` of it."""

    name = "cat-certify"
    setup_reps = 3
    min_ops = 1
    m = 6

    def __init__(self, seed: int, workdir: Path, digest: str):
        self.seed = seed
        self.workdir = workdir / self.name
        self.digest_file = workdir / "digests" / f"{self.name}-m{self.m}-{digest}.sha256"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def make_inputs(self) -> None:
        """The command lines are fixed; the seed has nothing to choose."""

    def op(self, k: int) -> Record:
        out = self.workdir / "out"
        t0 = time.perf_counter()
        rc_c, msg_c = _quiet_cli(["certify", "--map", CAT, "--m", str(self.m), "--out", str(out)])
        t1 = time.perf_counter()
        rc_v, msg_v = _quiet_cli(["verify", str(out / "certificate.json")])
        t2 = time.perf_counter()
        kept = _keep(out, self.workdir / f"round{k}")
        return Record(t0, t2 - t0, {
            "out": kept, "certify_s": t1 - t0, "verify_s": t2 - t1,
            "rc_certify": rc_c, "rc_verify": rc_v, "msg": (msg_c, msg_v),
        }, _file_bytes(kept))

    def check(self, records: list[Record]) -> list[tuple[str, bool, str]]:
        f = dynamics.builtin_map(CAT)
        s = geometry.make_subdivision(2, self.m, geometry.Space.TORUS)
        g = transition.build_graph(f, s)
        stored = self.digest_file.read_text().strip() if self.digest_file.exists() else None
        rows = []
        for r in records:
            path = r.parts["out"] / "certificate.json"
            certify_ok, reason = r.parts["rc_certify"] == 0, r.parts["msg"][0]
            if certify_ok:
                certify_ok, reason, sha = check_certificate(path, g.nonempty_count)
                if certify_ok and stored is not None and sha != stored:
                    certify_ok, reason = False, f"certificate.json sha256 {sha} != {stored}"
                stored = stored or sha
            rows.append(("certify", certify_ok, reason))
            rows.append(("verify", r.parts["rc_verify"] == 0, r.parts["msg"][1]))
        if stored is not None and not self.digest_file.exists():
            self.digest_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.digest_file.with_suffix(".tmp")
            tmp.write_text(stored + "\n")
            tmp.replace(self.digest_file)
        return rows

    def detail(self, records: list[Record]) -> dict:
        return {
            "certify_s": statistics.median(r.parts["certify_s"] for r in records),
            "verify_s": statistics.median(r.parts["verify_s"] for r in records),
            "certificate_mb": statistics.median(r.output_bytes for r in records) / 1e6,
        }


def check_certificate(path: Path, nonempty_edges: int) -> tuple[bool, str, str]:
    """Every nonempty edge is certified or excluded; returns (ok, why, sha256)."""
    raw = path.read_bytes()
    sha = hashlib.sha256(raw).hexdigest()
    try:
        body = json.loads(raw)["certificate"]
    except (ValueError, KeyError) as e:
        return False, f"certificate.json unreadable: {e}", sha
    covered = len(body["certificates"]) + len(body["excluded_boundary"])
    if covered != nonempty_edges:
        return False, f"{covered} certified+excluded != {nonempty_edges} nonempty edges", sha
    return True, "", sha


# --- nonlinear-graph --------------------------------------------------------

class NonlinearGraph:
    """CLI ``graph`` of the standard map at m=4 and the perturbed cat map at m=3."""

    name = "nonlinear-graph"
    setup_reps = 3
    min_ops = 1
    runs = (("standard", STANDARD, 4), ("perturbed", PERTURBED, 3))
    samples = 16

    def __init__(self, seed: int, workdir: Path, digest: str):
        self.seed = seed
        self.workdir = workdir / self.name

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        # Sample offsets in the unit cell, corners and centre included, used
        # to test each stored empty-pair gap against the true image.
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [0.5, 0.5]], dtype=float)
        self.offsets = np.vstack([corners, rng.random((self.samples, 2))])

    def op(self, k: int) -> Record:
        parts = {}
        total = 0.0
        start = time.perf_counter()
        for label, descriptor, m in self.runs:
            out = self.workdir / label
            t0 = time.perf_counter()
            rc, msg = _quiet_cli(["graph", "--map", descriptor, "--m", str(m), "--out", str(out)])
            dt = time.perf_counter() - t0
            total += dt
            kept = _keep(out, self.workdir / f"round{k}-{label}")
            parts[label] = {"out": kept, "s": dt, "rc": rc, "msg": msg}
        return Record(start, total, parts, sum(_file_bytes(p["out"]) for p in parts.values()))

    def check(self, records: list[Record]) -> list[tuple[str, bool, str]]:
        rows = []
        for r in records:
            for label, descriptor, _m in self.runs:
                part = r.parts[label]
                ok, reason = part["rc"] == 0, part["msg"]
                if ok:
                    f = dynamics.builtin_map(descriptor)
                    ok, reason, part["uncertain"] = check_graph(
                        f, part["out"] / "graph.json", self.offsets
                    )
                rows.append((f"graph {label}", ok, reason))
        return rows

    def detail(self, records: list[Record]) -> dict:
        uncertain = [
            sum(r.parts[label].get("uncertain", 0) for label, _, _ in self.runs)
            for r in records
        ]
        return {
            "graph_s": statistics.median(r.latency_s for r in records),
            "uncertain_edges": statistics.median(uncertain),
        }


def _torus_box_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its box, per-axis wrapped."""
    gaps = []
    for shift in (-1.0, 0.0, 1.0):
        x = points + shift
        gaps.append(np.maximum(np.maximum(lo - x, x - hi), 0.0))
    return np.sqrt(np.sum(np.min(np.stack(gaps), axis=0) ** 2, axis=1))


def check_graph(f, path: Path, offsets: np.ndarray) -> tuple[bool, str, int]:
    """Soundness of a stored graph: witnesses land where claimed, and no
    sampled image comes closer to an empty target than the certified gap.
    Returns (ok, why, uncertain edge count)."""
    body = json.loads(path.read_text())["graph"]
    s = geometry.make_subdivision(body["n"], body["m"], geometry.Space(body["space"]))
    width = s.cube_width
    uncertain = 0
    bad = []
    for i, j, status, info in body["edges"]:
        if status == transition.EdgeStatus.UNCERTAIN.value:
            uncertain += 1
            continue
        point = info["witness"]
        image = dynamics.eval_point(f, dynamics.Direction.FORWARD, point)
        if not s.box(i).contains_point(point, tol=MEMBER_TOL):
            bad.append(f"witness of ({i},{j}) lies outside cube {i}")
        elif not s.box(j).contains_point(tuple(image), tol=MEMBER_TOL):
            bad.append(f"witness image of ({i},{j}) lies outside cube {j}")
    gaps = body["near_empty_gaps"]
    min_gap = body["min_empty_gap"]
    if gaps:
        pairs = np.array([[int(v) for v in key.split(",")] for key in gaps])
        stored = np.array(list(gaps.values()), dtype=float)
        src = np.array([s.multi_index(int(i)) for i in pairs[:, 0]], dtype=float) * width
        dst = np.array([s.multi_index(int(j)) for j in pairs[:, 1]], dtype=float) * width
        k = len(offsets)
        pts = (src[:, None, :] + offsets[None, :, :] * width).reshape(-1, 2)
        images = dynamics.eval_points(f, pts)
        lo = np.repeat(dst, k, axis=0)
        sampled = _torus_box_distance(images, lo, lo + width).reshape(-1, k).min(axis=1)
        worst = int(np.argmin(sampled - stored))
        if sampled[worst] < stored[worst] - MEMBER_TOL:
            bad.append(
                f"pair {tuple(pairs[worst])}: sampled distance {sampled[worst]:.3e} "
                f"below certified gap {stored[worst]:.3e}"
            )
        if min_gap is None or min_gap > sampled.min() + MEMBER_TOL:
            bad.append(f"min_empty_gap {min_gap} above a sampled distance {sampled.min():.3e}")
    return not bad, "; ".join(bad[:3]), uncertain


# --- cat-shadow -------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    kind: str          # "shadow", "periodic" or "splice"
    eps: float
    orbit: object      # PseudoOrbit, or the splice segments
    period: int = 0


class CatShadow:
    """Closed loop of shadow requests against one m=5 cat-map certificate."""

    name = "cat-shadow"
    setup_reps = 3
    min_ops = 100
    m = 5
    delta = 1e-4
    gap = 6
    segment_length = 10
    # One block of requests, shuffled per block: 65% shadow N=100, 20%
    # shadow N=400, 15% periodic (period 1, 2 or 5) and spliced.  Sorted by
    # latency, periodic/splice < N=100 < N=400, so p50 falls inside the
    # N=100 class and p90 inside the N=400 class.  Keep that if resized.
    block = ("shadow100",) * 13 + ("shadow400",) * 4 + ("periodic",) * 2 + ("splice",)
    blocks = 6

    def __init__(self, seed: int, workdir: Path, digest: str):
        self.seed = seed

    def setup(self) -> None:
        f = dynamics.builtin_map(CAT)
        s = geometry.make_subdivision(2, self.m, geometry.Space.TORUS)
        g = transition.build_graph(f, s)
        cert = covering.certify_chained(f, s, g)
        if not isinstance(cert, covering.ChainedCertificate):
            raise RuntimeError(f"set-up certification failed: {cert}")
        self.f, self.s, self.g, self.cert = f, s, g, cert
        self.chi = geometry.chi(s)

    def make_inputs(self) -> None:
        self.requests = self._requests(np.random.default_rng(self.seed))

    def _requests(self, rng: np.random.Generator) -> list[Request]:
        f = self.f
        points = {period: exact.periodic_points(f, period) for period in (1, 2, 5)}
        successors = {}
        for i, j in self.g.witnesses:
            successors.setdefault(i, set()).add(j)
        out = []
        periodic = 0
        for _ in range(self.blocks):
            kinds = list(self.block)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind.startswith("shadow"):
                    window = int(kind[len("shadow"):])
                    x0 = tuple(float(v) for v in rng.random(2))
                    noise = shadowing.UniformNoise(int(rng.integers(2**31)))
                    p = shadowing.generate_pseudo_orbit(f, x0, self.delta, window, noise)
                    out.append(Request("shadow", self.chi, p))
                elif kind == "periodic":
                    period = (1, 2, 5)[periodic % 3]
                    periodic += 1
                    while True:
                        x = points[period][int(rng.integers(len(points[period])))]
                        if exact.minimal_period(f, x, period) == period:
                            break
                    p = noisy_cycle(f, x, period, self.delta, rng)
                    out.append(Request("periodic", self.chi, p, period))
                else:
                    # Spliced orbits carry cube-scale bridge defects; as in the
                    # CLI's coarse-scale splice example, they get a wider eps.
                    out.append(Request("splice", 2.0 * self.chi, self._segments(rng, successors)))
        return out

    def _segments(self, rng: np.random.Generator, successors: dict) -> list[list[tuple]]:
        """Two cube-centre orbit segments whose cubes reach each other within gap."""
        while True:
            c1, c2 = (int(v) for v in rng.integers(self.s.count, size=2))
            if (_reachable(successors, c1, c2, self.gap)
                    and _reachable(successors, c2, c1, self.gap)):
                return [self._segment(c1), self._segment(c2)]

    def _segment(self, cube: int) -> list[tuple]:
        seg = [self.s.box(cube).center]
        for _ in range(self.segment_length - 1):
            seg.append(tuple(float(v) for v in dynamics.eval_point(
                self.f, dynamics.Direction.FORWARD, seg[-1])))
        return seg

    def op(self, k: int) -> Record:
        req = self.requests[k % len(self.requests)]
        f, cert, g = self.f, self.cert, self.g
        t0 = time.perf_counter()
        if req.kind == "shadow":
            p = req.orbit
            res = shadowing.shadow(f, p, cert, req.eps, g=g)
        else:
            p = req.orbit
            if req.kind == "splice":
                p = shadowing.specification_splice(f, g, req.orbit, self.gap)
            res = shadowing.periodic_shadow(f, p, cert, req.eps, g=g)
        report = shadowing.verify_shadow(f, res.point, p, req.eps)
        csv = shadowing.orbit_csv(f, p, res)
        text = json.dumps(
            {"orbit": p.to_json(), "result": res.to_json(),
             "verify": report.to_json(), "eps": req.eps},
            sort_keys=True, indent=2,
        )
        latency = time.perf_counter() - t0
        return Record(t0, latency, {"request": req, "orbit": p, "result": res},
                      len(csv) + len(text))

    def check(self, records: list[Record]) -> list[tuple[str, bool, str]]:
        split = oracle.hyperbolic_splitting(self.f)
        return [
            (r.parts["request"].kind,) + check_shadow(
                self.f, split, r.parts["request"], r.parts["orbit"], r.parts["result"]
            )
            for r in records
        ]

    def detail(self, records: list[Record]) -> dict:
        lat = [r.latency_s * 1e3 for r in records]
        ranked = sorted(records, key=lambda r: r.latency_s)

        def request_class(q: float) -> str:
            r = ranked[min(int(q * len(ranked)), len(ranked) - 1)]
            return f"{r.parts['request'].kind} {len(r.parts['orbit'].points)} points"

        return {
            "shadow_p50_ms": statistics.median(lat),
            "shadow_p90_ms": p90(lat),
            "shadow_samples": len(lat),
            "shadows_per_s": len(lat) / sum(r.latency_s for r in records),
            "p50_class": request_class(0.5),
            "p90_class": request_class(0.9),
        }


def _reachable(successors: dict, start: int, goal: int, steps: int) -> bool:
    """Whether a path of at most ``steps`` graph edges leads from start to goal."""
    frontier, seen = {start}, {start}
    for _ in range(steps):
        frontier = {j for i in frontier for j in successors.get(i, ())} - seen
        if goal in frontier:
            return True
        seen |= frontier
    return False


def noisy_cycle(f, x, period: int, delta: float, rng: np.random.Generator):
    """A true period-``period`` cycle through ``x``, perturbed into a periodic
    delta-pseudo-orbit (each point moved by under 0.45*delta/(|A|+1))."""
    step = exact.exact_step(f, dynamics.Direction.FORWARD)
    cycle = [x]
    for _ in range(period - 1):
        cycle.append(step.apply(cycle[-1]))
    amp = 0.45 * delta / (float(np.linalg.norm(f.matrix_arr, 2)) + 1.0)
    noisy = []
    for q in cycle:
        vec = rng.normal(size=f.n)
        shift = vec / np.linalg.norm(vec) * amp * rng.random() ** (1.0 / f.n)
        point = np.asarray([float(v) for v in q]) + shift
        point -= np.floor(point)
        point[point == 1.0] = 0.0
        noisy.append(tuple(float(v) for v in point))
    return shadowing.pseudo_orbit(f, noisy, delta, lo=0, periodic=period)


def check_shadow(f, split, req: Request, p, res) -> tuple[bool, str]:
    """Recompute the tracking errors of the returned point and test the claims."""
    report = shadowing.verify_shadow(f, res.point, p, req.eps)
    if not report.ok:
        return False, f"verify_shadow: max error {report.max_err:.3e} >= eps {req.eps:.3e}"
    if not res.eps_achieved <= req.eps:
        return False, f"eps_achieved {res.eps_achieved:.3e} > eps {req.eps:.3e}"
    if not res.eps_achieved <= 3.0 * p.delta:
        return False, f"eps_achieved {res.eps_achieved:.3e} > 3*delta {3 * p.delta:.3e}"
    if req.kind == "shadow":
        truth = np.asarray(report.errors)
        ref = np.asarray(oracle.linear_shadow(split, p).errors)
        hi, lo = np.maximum(truth, ref), np.minimum(truth, ref)
        if not np.all(hi <= 2.0 * lo + 1e-12):
            return False, "per-step error differs from the linear oracle by > 2x"
    if req.kind == "periodic":
        found = exact.minimal_period(f, tuple(res.point), req.period)
        if found != req.period or res.minimal_period != req.period:
            return False, (f"minimal period {found} (reported {res.minimal_period}) "
                           f"!= requested {req.period}")
    return True, ""


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between samples (never beyond them)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


WORKLOADS = {w.name: w for w in (CatCertify, NonlinearGraph, CatShadow)}
