"""Command-line front door: build artifacts, certify, shadow, and re-verify.

Every subcommand resolves one RunConfig (defaults, then an optional JSON
config file, then explicit flags), performs its pipeline, and writes
deterministic artifacts under the output directory.  JSON payloads are
the standard library's compact sort_keys text; they embed the resolved
config, all but the output directory, plus content hashes of every file
read, so re-running the same config against the same inputs reproduces the
bytes in any output directory.

Exit codes separate kinds of "no":
    0  success
    2  certification failure: the mathematics rejected the claim
    3  numeric exhaustion: depth or precision ran out before a verdict
    4  invalid input: bad flags, malformed files, out-of-range parameters
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .covering import CoveringConfig, FailureReport, audit_chained, certify_chained
from .dynamics import MapSpec, builtin_map, wrap_points
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
from .geometry import Box, Space, chi, json_object, json_value, json_values, make_subdivision
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
    UniformNoise,
    _ball_point,
    chain_box,
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
    """Resolved knobs for one run, embedded in every JSON output but ``out``.

    Input paths live on the command line, not here, and the output
    directory is not embedded: the config describes the computation, the
    embedded content hashes pin down which files fed it.
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
    refine_depth: int = 6
    samples_per_cube: int = 5
    min_margin: float = 1e-9
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
            (self.refine_depth >= 0, "refine_depth must be >= 0"),
            (self.samples_per_cube >= 1, "samples_per_cube must be >= 1"),
            (self.min_margin > 0.0, "min_margin must be > 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_KINDS = {"int": int, "float": float, "str": str, "bool": bool}


def _config_value(name: str, value, key: str | None = None):
    """A config value of its field's annotated type, read as ``json_value``
    reads it: never coerced, and ValueError names the key (by default the
    config key)."""
    kind, _, optional = _FIELD_TYPES[name].partition(" | ")
    key = key or f"config key {name!r}"
    if value is None and optional:
        return None
    if kind == "tuple[str, ...]":
        return json_values(key, value, str)
    return json_value(key, value, _KINDS[kind])


class UsageError(Exception):
    """Command line or config file could not be understood."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, colliding with the
    # certification-failure code; raise instead and map to 4 in main().
    def error(self, message):
        raise UsageError(message)


def _load_json(path: str, inputs: dict[str, str]):
    """Parse a JSON file, recording the sha256 of its bytes under its name."""
    raw = Path(path).read_bytes()
    inputs[Path(path).name] = hashlib.sha256(raw).hexdigest()
    return json.loads(raw)


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, dict[str, str]]:
    """Defaults, then the config file, then flags; returns config + hashes."""
    data: dict = {}
    inputs: dict[str, str] = {}
    path = getattr(args, "config", None)
    if path:
        raw = json_value(path, _load_json(path, inputs), dict)
        unknown = sorted(set(raw) - _CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        data.update(raw)
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    return RunConfig(**{name: _config_value(name, v) for name, v in data.items()}), inputs


class Run:
    """Output plumbing for one subcommand invocation."""

    def __init__(self, command: str, cfg: RunConfig, inputs: dict[str, str]):
        self.command = command
        self.cfg = cfg
        self.inputs = inputs
        self.outdir = Path(cfg.out)
        self.artifacts: dict[str, str] = {}

    def read_json(self, path: str) -> dict:
        return _load_json(path, self.inputs)

    def _record(self, name: str, text: str) -> Path:
        self.outdir.mkdir(parents=True, exist_ok=True)
        target = self.outdir / name
        raw = text.encode()
        target.write_bytes(raw)
        self.artifacts[name] = hashlib.sha256(raw).hexdigest()
        return target

    def write_json(self, name: str, body: dict, encoded: dict[str, str] | None = None) -> Path:
        """Write the run's header, ``body`` and the ``encoded`` sections,
        which are JSON text already, as one object: the bytes of
        ``json.dumps(payload, sort_keys=True)`` for the payload they
        decode to, plus a newline.  The payloads hold no cycles, so the
        encoder does not look for them."""
        config = dataclasses.asdict(self.cfg)
        del config["out"]
        payload = {
            "command": self.command,
            "config": config,
            "inputs_sha256": self.inputs,
            "artifacts_sha256": self.artifacts,
            **body,
        }
        sections = {
            key: json.dumps(value, sort_keys=True, check_circular=False)
            for key, value in payload.items()
        }
        return self._record(name, json_object({**sections, **(encoded or {})}) + "\n")

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
        data = json_value(path, run.read_json(path), dict)
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
        print(f"  {len(rep.excluded_boundary)} excluded boundary contacts, listed in failure.json")


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
    run.write_json("graph.json", {}, encoded={"graph": g.to_json()})
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
    result = solve(f, p, cert, eps, g=g, allow_uncertain=cfg.allow_uncertain)
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
        shift = _ball_point(rng, f.n, amp)
        noisy.append(tuple(wrap_points(f.space, np.asarray([float(v) for v in q]) + shift)))
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
        data = run.read_json(path)  # a bare list, or an object holding it as "segments"
        raw = data["segments"] if isinstance(data, dict) else data
        return [[json_values("segments point", q) for q in json_values("segments", seg, list)]
                for seg in json_values("segments", raw, list)]
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
    cert_data = json_value("certificate", data.get("certificate", data), dict)
    sub = json_value("subdivision", cert_data["subdivision"], dict)
    stored = json_value("config", data.get("config", {}), dict)
    cfg = dataclasses.replace(
        run.cfg,
        map=_config_value("map", cert_data["map_id"], "map_id"),
        **{k: _config_value(k, sub[k], f"subdivision {k}") for k in ("n", "m", "space")},
        **{k: _config_value(k, stored[k]) for k in _CERTIFY_KNOBS if k in stored},
    )
    map_id, f = cfg.map, _make_map(cfg)
    if cfg.n != f.n:
        raise ValueError(f"subdivision dimension {cfg.n} != map dimension {f.n}")
    s, g = _graph(cfg, f)
    if json_value("subdivision count", sub["count"], int) != s.count:
        raise ValueError(f"subdivision count {sub['count']} != {s.count} cubes")
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
    stored = json_value("config", data.get("config", {}), dict)
    cfg = dataclasses.replace(
        run.cfg, **{k: _config_value(k, stored[k]) for k in ("map", "space") if k in stored}
    )
    descriptor, f = cfg.map, _make_map(cfg)
    p = pseudo_orbit_from_json(data["orbit"])
    result = shadow_result_from_json(data["result"])
    eps = json_value("eps", data["eps"])
    stored_ok = json_value("verify ok", json_value("verify", data["verify"], dict)["ok"], bool)
    if p.n != f.n:
        raise ValueError(f"orbit dimension {p.n} != map dimension {f.n}")
    try:
        box = chain_box(f, p)
    except ValueError as e:  # the chain outgrows a torus chart or the space
        print(f"verify: the step chain rebuilt from the stored orbit DISAGREES: {e}")
        return EXIT_CERTIFICATION
    report = verify_shadow(f, result.point, p, eps)
    # A periodic claim is the orbit's period; an exact periodic point's
    # minimal period is re-solved, and a float point claims none.
    period = None if result.periodic is None else p.periodic
    minimal = None
    if period is not None and result.exact:
        try:
            minimal = minimal_period(f, result.point, period)
        except ValueError as e:
            minimal = f"none ({e})"
    claims = (
        ("surviving box", box, result.surviving_box), ("window", p.window, result.window),
        ("eps_achieved", report.max_err, result.eps_achieved), ("verdict", report.ok, stored_ok),
        ("periodic", period, result.periodic), ("minimal_period", minimal, result.minimal_period),
    )
    for name, rebuilt, claimed in claims:
        if repr(rebuilt) != repr(claimed):  # a float's repr tells every bit apart
            print(f"verify: recomputed {name} {rebuilt!r} DISAGREES with stored {claimed!r}")
            return EXIT_CERTIFICATION
    print(
        f"verify: shadow of {descriptor} re-checked, max error "
        f"{report.max_err:.6g} {'<' if report.ok else '>='} eps {eps:.6g}, "
        f"matching the stored verdict"
    )
    return EXIT_OK


def cmd_verify(run: Run, args: argparse.Namespace) -> int:
    data = json_value(args.artifact, run.read_json(args.artifact), dict)
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
    g.add_argument("--refine-depth", type=int, help="transition refinement depth")
    g.add_argument("--samples-per-cube", type=int, help="witness samples per axis")
    g.add_argument("--min-margin", type=float, help="strict inequality margin")
    g.add_argument(
        "--allow-uncertain", action=argparse.BooleanOptionalAction, default=None,
        help="treat uncertain transitions as nonempty",
    )
    g.add_argument("--out", help="output directory")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing fills a
    fresh namespace each time and leaves the parser unchanged."""
    parser = _Parser(
        prog="cubeshadow",
        description="Certified shadowing of pseudo-orbits on dyadic cube subdivisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_config_flags(p)
        return p

    add("subdivide", "describe the dyadic subdivision and its mesh")
    add("graph", "build the transition graph; export JSON and DOT")
    add("delta-bound", "largest defect the graph can absorb")
    add("certify", "certify every nonempty transition (exit 2 on failure)")
    add("pseudo", "generate a perturbed pseudo-orbit")
    p = add("shadow", "certify and shadow a pseudo-orbit")
    p.add_argument("--orbit", metavar="FILE", help="pseudo-orbit JSON to shadow")
    p = add("periodic", "shadow a periodic pseudo-orbit periodically")
    p.add_argument("--orbit", metavar="FILE", help="periodic pseudo-orbit JSON")
    p = add("splice", "join orbit segments and shadow periodically")
    p.add_argument("--segments", metavar="FILE", help="JSON list of point lists")
    p = add("oracle", "independent ground truth for cross-checking")
    p.add_argument(
        "--task", choices=("linear", "brute-shadow", "fixed-points"),
        default="linear", help="which oracle to run",
    )
    p.add_argument("--orbit", metavar="FILE", help="pseudo-orbit JSON to shadow")
    p = add("verify", "re-check a stored certificate or shadow result")
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
        # Subcommand "delta-bound" runs cmd_delta_bound.  The handler is
        # looked up per call: the parser is built once, and a handler
        # wrapped on the module later must still be the one that runs.
        return globals()["cmd_" + args.command.replace("-", "_")](run, args)
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
