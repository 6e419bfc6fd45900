"""Command-line front door: build artifacts, certify, shadow, and re-verify.

Every subcommand resolves one RunConfig (defaults, then an optional JSON
config file, then explicit flags), performs its pipeline, and writes
deterministic artifacts under the output directory.  JSON payloads embed
the resolved config plus content hashes of every file read, so re-running
the same config against the same inputs reproduces the bytes.

Exit codes separate kinds of "no":
    0  success
    2  certification failure: the mathematics rejected the claim
    3  numeric exhaustion: depth or precision ran out before a verdict
    4  invalid input: bad flags, malformed files, out-of-range parameters
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .covering import CoveringConfig, FailureReport, audit_chained, certify_chained
from .dynamics import MapSpec, builtin_map
from .errors import (
    BrokenChainError,
    DeltaTooLargeError,
    FixedPointTolUnreachedError,
    InvalidMapError,
    MismatchedChainError,
    NoPathError,
    NoSurvivingCellError,
    NotEndomorphismError,
    NotHyperbolicError,
    NotInvertibleError,
    ResourceLimitError,
    UncertainEdgesError,
    UncertifiedTransitionError,
)
from .exact import minimal_period, supports_exact
from .geometry import Box, Space, chi, make_subdivision
from .oracle import (
    brute_force_fixed_points,
    brute_force_shadow,
    hyperbolic_splitting,
    linear_shadow,
)
from .shadowing import (
    Drift,
    PseudoOrbit,
    RoundToGrid,
    ShadowConfig,
    UniformNoise,
    generate_pseudo_orbit,
    orbit_csv,
    periodic_shadow,
    pseudo_orbit,
    pseudo_orbit_from_json,
    shadow,
    shadow_result_from_json,
    specification_splice,
    step_defects,
    true_orbit,
    verify_shadow,
)
from .transition import build_graph, delta_bound

EXIT_OK = 0
EXIT_CERTIFICATION = 2
EXIT_EXHAUSTED = 3
EXIT_INVALID = 4

_MODES = ("noise", "drift", "grid")
_SPACES = ("torus", "cube")


@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs for one run, embedded verbatim in every JSON output.

    Input and output *paths* live on the command line, not here: the
    config describes the computation, the embedded content hashes pin
    down which files fed it.
    """

    map: str = "toral [[2,1],[1,1]]"
    n: int = 2
    m: int = 5
    space: str = "torus"
    delta: float = 1e-4
    eps: float | None = None
    window: int = 20
    mode: str = "noise"
    seed: int = 0
    drift_direction: str | None = None
    grid_order: int | None = None
    x0: str = "0.2,0.3"
    period: int | None = None
    grid: int = 256
    starts: tuple[str, ...] | None = None
    segment_length: int = 10
    gap: int = 6
    strip_depth: int = 6
    bisection_depth: int = 96
    refine_depth: int = 6
    samples_per_cube: int = 5
    min_margin: float = 1e-9
    fp_tol: float = 1e-9
    allow_uncertain: bool = False
    out: str = "out"

    def __post_init__(self) -> None:
        checks = [
            (self.n >= 1, "n must be >= 1"),
            (self.m >= 0, "m must be >= 0"),
            (self.space in _SPACES, f"space must be one of {_SPACES}"),
            (self.delta >= 0.0, "delta must be >= 0"),
            (self.eps is None or self.eps > 0.0, "eps must be > 0"),
            (self.window >= 1, "window must be >= 1"),
            (self.mode in _MODES, f"mode must be one of {_MODES}"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.grid_order is None or self.grid_order >= 0,
             "grid_order must be >= 0"),
            (self.period is None or self.period >= 1, "period must be >= 1"),
            (self.grid >= 2, "grid must be >= 2"),
            (self.segment_length >= 1, "segment_length must be >= 1"),
            (self.gap >= 1, "gap must be >= 1"),
            (self.strip_depth >= 1, "strip_depth must be >= 1"),
            (self.bisection_depth >= 1, "bisection_depth must be >= 1"),
            (self.refine_depth >= 0, "refine_depth must be >= 0"),
            (self.samples_per_cube >= 1, "samples_per_cube must be >= 1"),
            (self.min_margin > 0.0, "min_margin must be > 0"),
            (self.fp_tol > 0.0, "fp_tol must be > 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_INT_FIELDS = {
    "n", "m", "window", "seed", "grid_order", "period", "grid",
    "segment_length", "gap", "strip_depth", "bisection_depth",
    "refine_depth", "samples_per_cube",
}
_FLOAT_FIELDS = {"delta", "eps", "min_margin", "fp_tol"}


class UsageError(Exception):
    """Command line or config file could not be understood."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, colliding with the
    # certification-failure code; raise instead and map to 4 in main().
    def error(self, message):
        raise UsageError(message)


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, dict[str, str]]:
    """Defaults, then the config file, then flags; returns config + hashes."""
    data: dict = {}
    inputs: dict[str, str] = {}
    path = getattr(args, "config", None)
    if path:
        text = Path(path).read_text()
        inputs[Path(path).name] = hashlib.sha256(text.encode()).hexdigest()
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - _CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        data.update(raw)
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    for name in list(data):
        value = data[name]
        if value is None:
            continue
        if name in _INT_FIELDS:
            data[name] = int(value)
        elif name in _FLOAT_FIELDS:
            data[name] = float(value)
    if isinstance(data.get("starts"), list):
        data["starts"] = tuple(str(s) for s in data["starts"])
    return RunConfig(**data), inputs


class Run:
    """Output plumbing for one subcommand invocation."""

    def __init__(self, command: str, cfg: RunConfig, inputs: dict[str, str]):
        self.command = command
        self.cfg = cfg
        self.inputs = inputs
        self.outdir = Path(cfg.out)
        self.artifacts: dict[str, str] = {}

    def read_json(self, path: str) -> dict:
        text = Path(path).read_text()
        self.inputs[Path(path).name] = hashlib.sha256(text.encode()).hexdigest()
        return json.loads(text)

    def _record(self, name: str, text: str) -> Path:
        self.outdir.mkdir(parents=True, exist_ok=True)
        target = self.outdir / name
        target.write_text(text)
        self.artifacts[name] = hashlib.sha256(text.encode()).hexdigest()
        return target

    def write_json(self, name: str, body: dict) -> Path:
        payload = {
            "command": self.command,
            "config": dataclasses.asdict(self.cfg),
            "inputs_sha256": dict(sorted(self.inputs.items())),
            "artifacts_sha256": dict(sorted(self.artifacts.items())),
            **body,
        }
        return self._record(name, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def write_text(self, name: str, text: str) -> Path:
        return self._record(name, text)


# --- shared pipeline pieces -------------------------------------------------

def _parse_point(text: str) -> tuple:
    parts = [t.strip() for t in text.split(",") if t.strip()]
    if not parts:
        raise ValueError(f"empty point {text!r}")
    if any("/" in t for t in parts):
        return tuple(Fraction(t) for t in parts)
    return tuple(float(t) for t in parts)


def _make_map(cfg: RunConfig) -> MapSpec:
    return builtin_map(cfg.map, Space(cfg.space))


def _make_mode(cfg: RunConfig, f: MapSpec):
    if cfg.mode == "noise":
        return UniformNoise(cfg.seed)
    if cfg.mode == "drift":
        raw = cfg.drift_direction
        direction = _parse_point(raw) if raw else (1.0,) + (0.0,) * (f.n - 1)
        return Drift(tuple(float(v) for v in direction))
    return RoundToGrid(cfg.grid_order if cfg.grid_order is not None else cfg.m)


def _x0(cfg: RunConfig, f: MapSpec) -> tuple:
    point = _parse_point(cfg.x0)
    if len(point) != f.n:
        raise ValueError(f"x0 has dimension {len(point)}, map needs {f.n}")
    return point


def _orbit(run: Run, args: argparse.Namespace, f: MapSpec) -> PseudoOrbit:
    """Load the pseudo-orbit from --orbit, or generate one per the config.

    A loaded orbit is rebuilt through ``pseudo_orbit``, so every step's
    defect is checked against the file's delta instead of trusted.
    """
    path = getattr(args, "orbit", None)
    if path:
        data = run.read_json(path)
        p = pseudo_orbit_from_json(data.get("orbit", data))
        if p.space is not f.space:
            raise ValueError("pseudo-orbit and map live on different spaces")
        if p.n != f.n:
            raise ValueError("pseudo-orbit dimension does not match the map")
        return pseudo_orbit(
            f, p.points, p.delta, lo=p.lo, periodic=p.periodic,
            known_itinerary=p.known_itinerary,
        )
    cfg = run.cfg
    x0 = tuple(float(v) for v in _x0(cfg, f))
    return generate_pseudo_orbit(f, x0, cfg.delta, cfg.window, _make_mode(cfg, f))


def _covering_config(cfg: RunConfig) -> CoveringConfig:
    return CoveringConfig(
        depth=cfg.strip_depth,
        min_margin=cfg.min_margin,
        allow_uncertain=cfg.allow_uncertain,
    )


def _shadow_config(cfg: RunConfig) -> ShadowConfig:
    return ShadowConfig(depth=cfg.bisection_depth, fp_tol=cfg.fp_tol)


def _graph(cfg: RunConfig, f: MapSpec):
    s = make_subdivision(f.n, cfg.m, f.space)
    g = build_graph(f, s, cfg.samples_per_cube, cfg.refine_depth)
    return s, g


def _print_failures(rep: FailureReport) -> None:
    print(
        f"certification FAILED for {rep.map_id}: "
        f"{rep.certified}/{rep.total_edges} edges certified"
    )
    for i, j, reason in rep.failures:
        print(f"  edge ({i}, {j}): {reason}")
    if rep.excluded_boundary:
        print(f"  excluded boundary contacts: {sorted(rep.excluded_boundary)}")


def _certify(run: Run, f: MapSpec, s, g):
    """Run chained certification; on failure, write the report and explain."""
    result = certify_chained(f, s, g, _covering_config(run.cfg))
    if isinstance(result, FailureReport):
        run.write_json("failure.json", {"failure": result.to_json()})
        _print_failures(result)
        return None
    return result


def _eps(cfg: RunConfig, s) -> float:
    return cfg.eps if cfg.eps is not None else chi(s)


# --- subcommands ------------------------------------------------------------

def cmd_subdivide(run: Run, args: argparse.Namespace) -> int:
    cfg = run.cfg
    s = make_subdivision(cfg.n, cfg.m, Space(cfg.space))
    run.write_json("subdivision.json", {"subdivision": s.to_json(), "chi": chi(s)})
    print(
        f"subdivide: {s.count} cubes of side 2^-{cfg.m} on the {cfg.space}, "
        f"mesh {chi(s):.6g} -> {run.outdir / 'subdivision.json'}"
    )
    return EXIT_OK


def cmd_graph(run: Run, args: argparse.Namespace) -> int:
    f = _make_map(run.cfg)
    s, g = _graph(run.cfg, f)
    dot = f"// command: graph\n// map: {f.descriptor}\n" + g.to_dot()
    run.write_text("graph.dot", dot)
    run.write_json("graph.json", {"graph": g.to_json()})
    print(
        f"graph: {g.nonempty_count} nonempty edges, {g.uncertain_count} uncertain "
        f"over {s.count} cubes -> {run.outdir / 'graph.json'}"
    )
    return EXIT_OK


def cmd_delta_bound(run: Run, args: argparse.Namespace) -> int:
    f = _make_map(run.cfg)
    s, g = _graph(run.cfg, f)
    value = delta_bound(g, allow_uncertain=run.cfg.allow_uncertain)
    run.write_json(
        "delta_bound.json",
        {
            "delta_bound": value,
            "chi": chi(s),
            "nonempty_edges": g.nonempty_count,
            "uncertain_edges": g.uncertain_count,
        },
    )
    print(
        f"delta-bound: {value:.10g} at m={run.cfg.m} "
        f"(mesh {chi(s):.6g}) -> {run.outdir / 'delta_bound.json'}"
    )
    return EXIT_OK


def cmd_certify(run: Run, args: argparse.Namespace) -> int:
    f = _make_map(run.cfg)
    s, g = _graph(run.cfg, f)
    cert = _certify(run, f, s, g)
    if cert is None:
        return EXIT_CERTIFICATION
    run.write_json("certificate.json", {"certificate": cert.to_json()})
    print(
        f"certify: {len(cert.certificates)} edges certified "
        f"({len(cert.classes)} translation classes) for {f.descriptor} "
        f"at m={run.cfg.m}, margin {cert.margin():.3e} "
        f"-> {run.outdir / 'certificate.json'}"
    )
    return EXIT_OK


def cmd_pseudo(run: Run, args: argparse.Namespace) -> int:
    cfg = run.cfg
    f = _make_map(cfg)
    p = generate_pseudo_orbit(
        f, tuple(float(v) for v in _x0(cfg, f)), cfg.delta, cfg.window,
        _make_mode(cfg, f),
    )
    worst = max(step_defects(f, p), default=0.0)
    run.write_text("orbit.csv", p.to_csv())
    run.write_json("orbit.json", {"orbit": p.to_json(), "max_defect": worst})
    print(
        f"pseudo: window [{p.lo}, {p.hi}], delta {p.delta:.3g}, "
        f"worst defect {worst:.3g} -> {run.outdir / 'orbit.json'}"
    )
    return EXIT_OK


def _shadow_tail(
    run: Run, f: MapSpec, p: PseudoOrbit, s, g, solve, artifact: str, line
) -> int:
    """Certify, solve, verify and write one shadow request's artifacts.

    ``solve`` is shadow or periodic_shadow, which checks p's itinerary;
    ``line(result, report, eps)`` is the command's report line, to which
    the artifact path is appended.
    """
    cfg = run.cfg
    cert = _certify(run, f, s, g)
    if cert is None:
        return EXIT_CERTIFICATION
    run.write_json("certificate.json", {"certificate": cert.to_json()})
    eps = _eps(cfg, s)
    result = solve(
        f, p, cert, eps, g=g, allow_uncertain=cfg.allow_uncertain, cfg=_shadow_config(cfg)
    )
    report = verify_shadow(f, result.point, p, eps)
    run.write_text("orbit.csv", orbit_csv(f, p, result))
    path = run.write_json(
        artifact,
        {
            "orbit": p.to_json(),
            "result": result.to_json(),
            "verify": report.to_json(),
            "eps": eps,
        },
    )
    print(f"{line(result, report, eps)} -> {path}")
    if not report.ok:
        print("verification DISAGREES with the certified tracking claim")
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_shadow(run: Run, args: argparse.Namespace) -> int:
    cfg = run.cfg
    f = _make_map(cfg)
    p = _orbit(run, args, f)
    s, g = _graph(cfg, f)
    return _shadow_tail(
        run, f, p, s, g, shadow, "shadow.json",
        lambda res, rep, eps: (
            f"shadow: eps_achieved {res.eps_achieved:.6g} <= eps {eps:.6g}, "
            f"verified max error {rep.max_err:.6g} at k={rep.argmax_k}"
        ),
    )


def _closed_cycle(f: MapSpec, x0: tuple, period: int) -> list[tuple]:
    """Iterate x0 for one period and insist the orbit closes up.

    A rational x0 on an exactly-affine map is checked exactly, by
    minimal_period, and on the torus its cycle starts from x0 mod 1.
    """
    text = ",".join(str(v) for v in x0)
    if supports_exact(f) and isinstance(x0[0], Fraction):
        if f.space is Space.TORUS:
            x0 = tuple(v % 1 for v in x0)
        try:
            minimal_period(f, x0, period)
        except ValueError:
            raise ValueError(
                f"x0 {text} is not periodic with period {period} (exact check)"
            ) from None
        return true_orbit(f, x0, 0, period - 1)
    pts = true_orbit(f, x0, 0, period)
    gap = np.subtract(pts[-1], pts[0])
    if f.space is Space.TORUS:
        gap -= np.rint(gap)
    if float(np.linalg.norm(gap)) > 1e-9:
        raise ValueError(f"x0 {text} is not periodic with period {period}")
    return pts[:-1]


def _noisy_cycle(f: MapSpec, cycle: list[tuple], delta: float, seed: int) -> PseudoOrbit:
    """Perturb a true cycle into a periodic delta-pseudo-orbit."""
    stretch = float(np.linalg.norm(f.matrix_arr, 2))
    amp = 0.45 * delta / (stretch + 1.0)
    rng = np.random.default_rng(seed)
    noisy = []
    for q in cycle:
        vec = rng.normal(size=f.n)
        norm = float(np.linalg.norm(vec)) or 1.0
        shift = vec / norm * amp * rng.random() ** (1.0 / f.n)
        point = np.asarray([float(v) for v in q]) + shift
        if f.space is Space.TORUS:
            point -= np.floor(point)
            point[point == 1.0] = 0.0
        noisy.append(tuple(point))
    return pseudo_orbit(f, noisy, delta, lo=0, periodic=len(noisy))


def cmd_periodic(run: Run, args: argparse.Namespace) -> int:
    cfg = run.cfg
    f = _make_map(cfg)
    if getattr(args, "orbit", None):
        p = _orbit(run, args, f)
        if p.periodic is None:
            raise ValueError("periodic shadowing needs a periodic pseudo-orbit")
    else:
        if cfg.period is None:
            raise ValueError("need --period (or --orbit with a periodic orbit)")
        cycle = _closed_cycle(f, _x0(cfg, f), cfg.period)
        p = _noisy_cycle(f, cycle, cfg.delta, cfg.seed)
    s, g = _graph(cfg, f)
    return _shadow_tail(
        run, f, p, s, g, periodic_shadow, "periodic.json",
        lambda res, rep, eps: (
            f"periodic: period {res.periodic} orbit (minimal {res.minimal_period}), "
            f"eps_achieved {res.eps_achieved:.6g} <= eps {eps:.6g}"
        ),
    )


def _segments(run: Run, args: argparse.Namespace, f: MapSpec) -> list[list[tuple]]:
    path = getattr(args, "segments", None)
    if path:
        data = run.read_json(path)
        raw = data.get("segments", data)
        if not isinstance(raw, list):
            raise ValueError("segments file must hold a list of point lists")
        return [[tuple(float(v) for v in q) for q in seg] for seg in raw]
    cfg = run.cfg
    if not cfg.starts:
        raise ValueError("need --start (repeatable) or --segments FILE")
    segments = []
    for text in cfg.starts:
        x0 = _parse_point(text)
        if len(x0) != f.n:
            raise ValueError(f"start {text!r} has dimension {len(x0)}, map needs {f.n}")
        segments.append(true_orbit(f, x0, 0, cfg.segment_length - 1))
    return segments


def cmd_splice(run: Run, args: argparse.Namespace) -> int:
    cfg = run.cfg
    f = _make_map(cfg)
    segments = _segments(run, args, f)
    s, g = _graph(cfg, f)
    p = specification_splice(f, g, segments, cfg.gap)
    run.write_json(
        "splice.json",
        {
            "orbit": p.to_json(),
            "segment_lengths": [len(seg) for seg in segments],
            "gap": cfg.gap,
        },
    )
    return _shadow_tail(
        run, f, p, s, g, periodic_shadow, "periodic.json",
        lambda res, rep, eps: (
            f"splice: {len(segments)} segments + bridges -> period {len(p.points)} "
            f"pseudo-orbit (delta {p.delta:.3g}), shadowed with eps_achieved "
            f"{res.eps_achieved:.6g} <= eps {eps:.6g}"
        ),
    )


def cmd_oracle(run: Run, args: argparse.Namespace) -> int:
    cfg = run.cfg
    f = _make_map(cfg)
    if args.task == "fixed-points":
        region = Box((0.0,) * f.n, (1.0,) * f.n, f.space)
        found = brute_force_fixed_points(
            f, region, cfg.period if cfg.period is not None else 1, cfg.grid
        )
        run.write_json("oracle.json", {"fixed_points": found.to_json()})
        note = " (degenerate: continuum of solutions)" if found.degenerate else ""
        print(
            f"oracle: {len(found.points)} period-{cfg.period or 1} points at "
            f"grid {cfg.grid}{note} -> {run.outdir / 'oracle.json'}"
        )
        return EXIT_OK
    p = _orbit(run, args, f)
    if args.task == "brute-shadow":
        eps = cfg.eps if cfg.eps is not None else chi(make_subdivision(f.n, cfg.m, f.space))
        found = brute_force_shadow(f, p, cfg.grid, eps)
        run.write_json("oracle.json", {"search": found.to_json()})
        print(
            f"oracle: brute-force shadow max error {found.max_err:.6g} over "
            f"window {found.window} at grid {cfg.grid} "
            f"-> {run.outdir / 'oracle.json'}"
        )
        return EXIT_OK
    split = hyperbolic_splitting(f)
    ls = linear_shadow(split, p)
    run.write_text("oracle.csv", ls.to_csv(p))
    run.write_json("oracle.json", {"shadow": ls.to_json()})
    print(
        f"oracle: closed-form shadow max error {ls.max_error:.6g}, "
        f"truncation bound {ls.truncation_bound:.3g} "
        f"-> {run.outdir / 'oracle.json'}"
    )
    return EXIT_OK


# The RunConfig fields that shape a certificate; verify reads them from
# the certificate's embedded config.
_CERTIFY_KNOBS = (
    "samples_per_cube", "refine_depth", "strip_depth", "min_margin", "allow_uncertain",
)


def _verify_chained(run: Run, data: dict) -> int:
    """Rebuild the graph from the embedded config and audit the certificate on it."""
    cert_data = data.get("certificate", data)
    map_id = cert_data["map_id"]
    sub = cert_data["subdivision"]
    stored = data.get("config", {})
    cfg = dataclasses.replace(
        run.cfg, map=map_id, space=sub["space"], m=int(sub["m"]),
        **{k: stored[k] for k in _CERTIFY_KNOBS if k in stored},
    )
    f = _make_map(cfg)
    if int(sub["n"]) != f.n:
        raise ValueError(f"subdivision dimension {sub['n']} != map dimension {f.n}")
    _, g = _graph(cfg, f)
    audit = audit_chained(f, g, cert_data, _covering_config(cfg))
    if audit.problems:
        print(f"verify: certificate for {map_id} REJECTED, {len(audit.problems)} problem(s):")
        for line in audit.problems[:20]:
            print(f"  {line}")
        if len(audit.problems) > 20:
            print(f"  ... and {len(audit.problems) - 20} more")
        return EXIT_CERTIFICATION
    print(
        f"verify: {audit.classes} classes re-checked from scratch, "
        f"{audit.certified} certified edges derived, {audit.excluded} excluded "
        f"edges checked against the rebuilt graph for {map_id}"
    )
    return EXIT_OK


def _verify_shadow_file(run: Run, data: dict) -> int:
    stored = data.get("config", {})
    descriptor = stored.get("map", run.cfg.map)
    space = stored.get("space", run.cfg.space)
    f = builtin_map(descriptor, Space(space))
    p = pseudo_orbit_from_json(data["orbit"])
    result = shadow_result_from_json(data["result"])
    eps = float(data["eps"])
    report = verify_shadow(f, result.point, p, eps)
    stored_ok = bool(data["verify"]["ok"])
    if report.ok != stored_ok:
        print(
            f"verify: recomputed verdict {report.ok} DISAGREES with stored "
            f"{stored_ok} (max error {report.max_err:.6g} vs eps {eps:.6g})"
        )
        return EXIT_CERTIFICATION
    print(
        f"verify: shadow of {descriptor} re-checked, max error "
        f"{report.max_err:.6g} {'<' if report.ok else '>='} eps {eps:.6g}, "
        f"matching the stored verdict"
    )
    return EXIT_OK


def cmd_verify(run: Run, args: argparse.Namespace) -> int:
    data = run.read_json(args.artifact)
    if "certificate" in data or "certificates" in data:
        return _verify_chained(run, data)
    if "result" in data and "orbit" in data:
        return _verify_shadow_file(run, data)
    raise ValueError(
        "unrecognized artifact shape: expected a chained certificate or a "
        "shadow result"
    )


# --- argument parsing -------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("run configuration")
    g.add_argument("--config", metavar="FILE", help="JSON file of RunConfig fields")
    g.add_argument("--map", help="map descriptor, e.g. 'toral [[2,1],[1,1]]'")
    g.add_argument("--n", type=int, help="dimension")
    g.add_argument("--m", type=int, help="subdivision order (cubes of side 2^-m)")
    g.add_argument("--space", choices=_SPACES)
    g.add_argument("--delta", type=float, help="pseudo-orbit defect bound")
    g.add_argument("--eps", type=float, help="shadowing distance (default: mesh)")
    g.add_argument("--window", type=int, help="pseudo-orbit steps N")
    g.add_argument("--mode", choices=_MODES, help="perturbation mode")
    g.add_argument("--seed", type=int, help="noise seed")
    g.add_argument("--drift-direction", help="comma-separated drift direction")
    g.add_argument("--grid-order", type=int, help="rounding grid order for mode=grid")
    g.add_argument("--x0", help="comma-separated start point (fractions allowed)")
    g.add_argument("--period", type=int, help="period for periodic runs")
    g.add_argument("--grid", type=int, help="brute-force lattice points per axis")
    g.add_argument(
        "--start", action="append", dest="starts", metavar="POINT",
        help="segment start for splice (repeatable, fractions allowed)",
    )
    g.add_argument("--segment-length", type=int, help="points per splice segment")
    g.add_argument("--gap", type=int, help="max bridge length for splice")
    g.add_argument("--strip-depth", type=int, help="covering strip search depth")
    g.add_argument("--bisection-depth", type=int, help="shadow cell bisection depth")
    g.add_argument("--refine-depth", type=int, help="transition refinement depth")
    g.add_argument("--samples-per-cube", type=int, help="witness samples per axis")
    g.add_argument("--min-margin", type=float, help="strict inequality margin")
    g.add_argument("--fp-tol", type=float, help="periodic point residual tolerance")
    g.add_argument(
        "--allow-uncertain", action=argparse.BooleanOptionalAction, default=None,
        help="treat uncertain transitions as nonempty",
    )
    g.add_argument("--out", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cubeshadow",
        description="Certified shadowing of pseudo-orbits on dyadic cube subdivisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        _add_config_flags(p)
        return p

    add("subdivide", cmd_subdivide, "describe the dyadic subdivision and its mesh")
    add("graph", cmd_graph, "build the transition graph; export JSON and DOT")
    add("delta-bound", cmd_delta_bound, "largest defect the graph can absorb")
    add("certify", cmd_certify, "certify every nonempty transition (exit 2 on failure)")
    add("pseudo", cmd_pseudo, "generate a perturbed pseudo-orbit")
    p = add("shadow", cmd_shadow, "certify and shadow a pseudo-orbit")
    p.add_argument("--orbit", metavar="FILE", help="pseudo-orbit JSON to shadow")
    p = add("periodic", cmd_periodic, "shadow a periodic pseudo-orbit periodically")
    p.add_argument("--orbit", metavar="FILE", help="periodic pseudo-orbit JSON")
    p = add("splice", cmd_splice, "join orbit segments and shadow periodically")
    p.add_argument("--segments", metavar="FILE", help="JSON list of point lists")
    p = add("oracle", cmd_oracle, "independent ground truth for cross-checking")
    p.add_argument(
        "--task", choices=("linear", "brute-shadow", "fixed-points"),
        default="linear", help="which oracle to run",
    )
    p.add_argument("--orbit", metavar="FILE", help="pseudo-orbit JSON to shadow")
    p = add("verify", cmd_verify, "re-check a stored certificate or shadow result")
    p.add_argument("artifact", help="JSON artifact to re-verify")
    return parser


_EXHAUSTION = (NoSurvivingCellError, FixedPointTolUnreachedError, UncertainEdgesError)
_REFUTATION = (
    UncertifiedTransitionError,
    BrokenChainError,
    NotHyperbolicError,
    NoPathError,
)
_BAD_INPUT = (
    InvalidMapError,
    DeltaTooLargeError,
    NotInvertibleError,
    NotEndomorphismError,
    ResourceLimitError,
    MismatchedChainError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, inputs = _resolve_config(args)
        run = Run(args.command, cfg, inputs)
        return args.func(run, args)
    except _EXHAUSTION as e:
        print(f"exhausted: {e}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except _REFUTATION as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except _BAD_INPUT as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, TypeError, OSError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
