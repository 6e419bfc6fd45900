"""Spans and counters at the module boundaries of cubeshadow, from outside.

A ``Tracer`` wraps the public names that one cubeshadow module calls in
another (``cubeshadow.transition.eval_box``, ``cubeshadow.shadowing.step_chain``,
``cubeshadow.cli.Run.write_json`` ...) for the duration of a ``with
tracer.active(phase):`` block and restores the originals afterwards, so
untraced operations run the unmodified program.  Every span (name, start,
end, parent, operation id) is kept in memory and written by ``save``;
per-name call counts, total and self times are aggregated per phase as
spans end.

Stages that live in private functions (refinement versus branch-and-bound
inside ``build_graph``, strips tried per edge, the bisection versus the
exact boundary-value solve) cannot be split from outside; ``UNMEASURED``
lists them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _graph_counts(counts, args, kwargs, g):
    counts["transition.edges_nonempty"] += g.nonempty_count
    counts["transition.edges_uncertain"] += g.uncertain_count
    counts["transition.empty_gaps_stored"] += len(g.empty_gaps)


def _certify_counts(counts, args, kwargs, result):
    if hasattr(result, "certificates"):  # a ChainedCertificate
        counts["covering.certified"] += len(result.certificates)
    else:  # a FailureReport
        counts["covering.certified"] += result.certified
        counts["covering.failed"] += len(result.failures)
    counts["covering.excluded_boundary"] += len(result.excluded_boundary)


def _points_count(counts, args, kwargs, result):
    counts["dynamics.eval_points.points"] += len(result)


def _written_bytes(counts, args, kwargs, path):
    counts["cli.write_json.bytes"] += Path(path).stat().st_size


def _read_bytes(counts, args, kwargs, result):
    counts["cli.read_json.bytes"] += Path(args[1]).stat().st_size


# (span name, module, attribute path, hook run on the return value)
SPANS = (
    ("dynamics.eval_box", "cubeshadow.dynamics", "eval_box", None),
    ("dynamics.eval_point", "cubeshadow.dynamics", "eval_point", None),
    ("dynamics.eval_points", "cubeshadow.dynamics", "eval_points", _points_count),
    ("dynamics.residual_range", "cubeshadow.dynamics", "residual_range", None),
    ("transition.build_graph", "cubeshadow.transition", "build_graph", _graph_counts),
    ("covering.certify_chained", "cubeshadow.covering", "certify_chained", _certify_counts),
    ("covering.check_covering", "cubeshadow.covering", "check_covering", None),
    ("covering.verify_certificate", "cubeshadow.covering", "verify_certificate", None),
    ("covering.certificate_from_json", "cubeshadow.covering", "certificate_from_json", None),
    ("covering.ChainedCertificate.to_json", "cubeshadow.covering", "ChainedCertificate.to_json", None),
    ("shadowing.shadow", "cubeshadow.shadowing", "shadow", None),
    ("shadowing.step_chain", "cubeshadow.shadowing", "step_chain", None),
    ("shadowing.periodic_shadow", "cubeshadow.shadowing", "periodic_shadow", None),
    ("shadowing.specification_splice", "cubeshadow.shadowing", "specification_splice", None),
    ("shadowing.verify_shadow", "cubeshadow.shadowing", "verify_shadow", None),
    ("shadowing.orbit_csv", "cubeshadow.shadowing", "orbit_csv", None),
    ("exact.exact_step", "cubeshadow.exact", "exact_step", None),
    ("exact.ExactAffine.apply", "cubeshadow.exact", "ExactAffine.apply", None),
    ("exact.eigen_directions", "cubeshadow.exact", "eigen_directions", None),
    ("cli.write_json", "cubeshadow.cli", "Run.write_json", _written_bytes),
    ("cli.read_json", "cubeshadow.cli", "Run.read_json", _read_bytes),
    ("cli.certify", "cubeshadow.cli", "cmd_certify", None),
    ("cli.verify", "cubeshadow.cli", "cmd_verify", None),
    ("cli.graph", "cubeshadow.cli", "cmd_graph", None),
)

# Per-layer metrics of one traced phase: (metric, unit, better, kind, source).
# Kinds: calls / points per operation, total or self time per operation,
# microseconds per call, or a counter total per operation.
LAYER_METRICS = (
    ("dynamics.eval_box.calls", "count", "lower", "calls", "dynamics.eval_box"),
    ("dynamics.eval_box.us_per_call", "us", "lower", "us_per_call", "dynamics.eval_box"),
    ("dynamics.eval_point.calls", "count", "lower", "calls", "dynamics.eval_point"),
    ("dynamics.eval_points.points", "count", "lower", "counter", "dynamics.eval_points.points"),
    ("dynamics.residual_range.calls", "count", "lower", "calls", "dynamics.residual_range"),
    ("transition.build_graph.s", "s", "lower", "s", "transition.build_graph"),
    ("transition.build_graph.self_s", "s", "lower", "self_s", "transition.build_graph"),
    ("transition.edges_nonempty", "count", "lower", "counter", "transition.edges_nonempty"),
    ("transition.edges_uncertain", "count", "lower", "counter", "transition.edges_uncertain"),
    ("transition.empty_gaps_stored", "count", "lower", "counter", "transition.empty_gaps_stored"),
    ("covering.certify_chained.s", "s", "lower", "s", "covering.certify_chained"),
    ("covering.certify_chained.self_s", "s", "lower", "self_s", "covering.certify_chained"),
    ("covering.check_covering.calls", "count", "lower", "calls", "covering.check_covering"),
    ("covering.check_covering.us_per_call", "us", "lower", "us_per_call", "covering.check_covering"),
    ("covering.verify_certificate.calls", "count", "lower", "calls", "covering.verify_certificate"),
    ("covering.verify_certificate.us_per_call", "us", "lower", "us_per_call", "covering.verify_certificate"),
    ("covering.ChainedCertificate.to_json.s", "s", "lower", "s", "covering.ChainedCertificate.to_json"),
    ("covering.certificate_from_json.us_per_call", "us", "lower", "us_per_call", "covering.certificate_from_json"),
    ("covering.certified", "count", "higher", "counter", "covering.certified"),
    ("covering.excluded_boundary", "count", "lower", "counter", "covering.excluded_boundary"),
    ("covering.failed", "count", "lower", "counter", "covering.failed"),
    ("shadowing.shadow.ms", "ms", "lower", "ms", "shadowing.shadow"),
    ("shadowing.shadow.self_ms", "ms", "lower", "self_ms", "shadowing.shadow"),
    ("shadowing.step_chain.ms", "ms", "lower", "ms", "shadowing.step_chain"),
    ("shadowing.periodic_shadow.ms", "ms", "lower", "ms", "shadowing.periodic_shadow"),
    ("shadowing.specification_splice.ms", "ms", "lower", "ms", "shadowing.specification_splice"),
    ("shadowing.verify_shadow.ms", "ms", "lower", "ms", "shadowing.verify_shadow"),
    ("shadowing.orbit_csv.ms", "ms", "lower", "ms", "shadowing.orbit_csv"),
    ("exact.exact_step.calls", "count", "lower", "calls", "exact.exact_step"),
    ("exact.ExactAffine.apply.calls", "count", "lower", "calls", "exact.ExactAffine.apply"),
    ("exact.ExactAffine.apply.us_per_call", "us", "lower", "us_per_call", "exact.ExactAffine.apply"),
    ("exact.eigen_directions.calls", "count", "lower", "calls", "exact.eigen_directions"),
    ("exact.eigen_directions.ms", "ms", "lower", "ms", "exact.eigen_directions"),
    ("cli.write_json.bytes", "B", "lower", "counter", "cli.write_json.bytes"),
    ("cli.write_json.s", "s", "lower", "s", "cli.write_json"),
    ("cli.read_json.bytes", "B", "lower", "counter", "cli.read_json.bytes"),
    ("cli.read_json.s", "s", "lower", "s", "cli.read_json"),
    ("cli.certify.s", "s", "lower", "s", "cli.certify"),
    ("cli.verify.s", "s", "lower", "s", "cli.verify"),
    ("cli.graph.s", "s", "lower", "s", "cli.graph"),
)

# Set-up work that later changes may move; reported per traced set-up.
SETUP_METRICS = (
    ("setup.transition.build_graph.s", "s", "lower", "s", "transition.build_graph"),
    ("setup.covering.certify_chained.s", "s", "lower", "s", "covering.certify_chained"),
    ("setup.dynamics.eval_box.calls", "count", "lower", "calls", "dynamics.eval_box"),
)

# Tracing overhead: traced minus untraced value of each end-to-end time.
OVERHEAD_METRICS = (
    ("trace.overhead.setup_s", "s", "lower"),
    ("trace.overhead.op_p50_ms", "ms", "lower"),
    ("trace.overhead.op_p90_ms", "ms", "lower"),
    ("trace.overhead.op_p50_pct", "%", "lower"),
    ("trace.spans_per_op", "count", "lower"),
)

UNMEASURED = {
    "transition.refine_vs_branch_and_bound": (
        "uncertain-pair refinement and gap branch-and-bound are private "
        "functions inside build_graph (_refine_uncertain, _pair_distance_lb); "
        "their split waits for spans inside the program"
    ),
    "covering.strips_tried_per_edge": (
        "the strip search loop is inside check_covering and calls the private "
        "_check_strip; only calls and time per check_covering are visible"
    ),
    "shadowing.bisection_vs_bvp": (
        "the bisection (_bisect_cell) and the exact boundary-value solve "
        "(_bvp_point) are private; their sum is shadowing.shadow.self_ms"
    ),
    "geometry": (
        "called once per box; a wrapper would cost more than the call, so its "
        "time shows as self time of its callers"
    ),
    "oracle": "the cross-check runs outside the timed part",
}

_SCALE = {"s": 1.0, "self_s": 1.0, "ms": 1e3, "self_ms": 1e3}


class Tracer:
    """In-memory span recorder with per-phase aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack: list[list] = []
        self._agg: dict[str, dict[str, list]] = {}
        self._counts: dict[str, defaultdict] = {}
        self._phase_agg: dict[str, list] = {}
        self._phase_counts: defaultdict = defaultdict(float)
        self._patches: list[tuple] | None = None

    def _span(self, name: str, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                dur = end - self.span_start[idx]
                agg = self._phase_agg.get(name)
                if agg is None:
                    agg = self._phase_agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self._phase_counts, args, kwargs, result)
            return result

        return wrapper

    def _build_patches(self) -> list[tuple]:
        patches = []
        for name, module, path, hook in SPANS:
            owner, attr, original = _resolve(module, path)
            wrapper = self._span(name, original, hook)
            for site, site_attr in _sites(owner, attr, original):
                patches.append((site, site_attr, original, wrapper))
        return patches

    @contextmanager
    def active(self, phase: str):
        """Patch every traced name for the duration of the block."""
        if self._patches is None:
            self._patches = self._build_patches()
        self._phase_agg = self._agg.setdefault(phase, {})
        self._phase_counts = self._counts.setdefault(phase, defaultdict(float))
        try:
            for site, attr, _original, wrapper in self._patches:
                setattr(site, attr, wrapper)
            yield self
        finally:
            for site, attr, original, _wrapper in self._patches:
                setattr(site, attr, original)

    def metrics(self, phase: str, units: int, table=LAYER_METRICS) -> dict[str, float]:
        """Values of ``table`` for ``phase``, per unit (operation or set-up)."""
        agg = self._agg.get(phase, {})
        counts = self._counts.get(phase, {})
        units = max(units, 1)
        out = {}
        for metric, _unit, _better, kind, source in table:
            calls, total, self_s = agg.get(source, (0, 0.0, 0.0))
            if kind == "calls":
                value = calls / units
            elif kind == "us_per_call":
                value = total / calls * 1e6 if calls else 0.0
            elif kind == "counter":
                value = counts.get(source, 0) / units
            else:
                value = (self_s if kind.startswith("self") else total) * _SCALE[kind] / units
            out[metric] = value
        return out

    def span_count(self, phase: str) -> int:
        return sum(row[0] for row in self._agg.get(phase, {}).values())

    def save(self, path: Path, header: dict) -> None:
        """Write the spans as JSON: a name table and parallel columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        body = {
            **header,
            "unmeasured": UNMEASURED,
            "names": self.names,
            "columns": ["name", "parent", "op", "start", "end"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        path.write_text(json.dumps(body))


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _sites(owner, attr: str, original):
    """Every binding of ``original`` a caller can reach: the owner attribute
    and, for functions, each cubeshadow module that imported the name."""
    if isinstance(owner, type):
        yield owner, attr
        return
    for name, module in list(sys.modules.items()):
        if name == "cubeshadow" or name.startswith("cubeshadow."):
            for key, value in list(vars(module).items()):
                if value is original:
                    yield module, key
