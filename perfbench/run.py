"""Benchmark of cubeshadow: one workload, one process, one client.

    python3 perfbench/run.py --workload cat-certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed first: imports, the
median of ``setup_reps`` repetitions of the workload's set-up, and the
generation of its inputs from ``--seed``.  Then a closed loop runs
operations until the next one would end past
``--seconds`` (at least the workload's minimum count); then every output
is checked.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``E2E``); their
times are normalized to a fixed host speed by ``speed.SpeedSampler``,
which times a reference computation every 0.2 s throughout, so that runs
made minutes apart on a shared host compare.  With
``--trace 1`` operations alternate untraced and traced, one set-up is
traced, and the metrics are the per-layer ones from ``tracing`` plus the
tracing overhead (traced minus untraced).  Two lines before the result,
prefixed ``env`` and ``detail``, stamp the environment and give the
workload's own metrics by the names the roadmap uses (certify_s, graph_s,
shadow_p90_ms, ...) as raw wall times, with the host's measured slowdown.  Exits 2 without a result when the cubeshadow
sources are not under ``src/``.
"""

import time

# Set-up time starts here, before the imports it includes.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import NOMINAL_S, SpeedSampler  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cat-certify", "nonlinear-graph", "cat-shadow")
# Past this much loop time no further operation starts, whatever the
# minimum count, so a run ends well inside three minutes.
HARD_CAP_S = 110.0

# End-to-end metrics, reported by every workload: (name, unit).  An
# operation is one certify+verify round trip (cat-certify), the pair of
# graph builds (nonlinear-graph), or one shadow request (cat-shadow).
E2E = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("output_mb", "MB"),
    ("peak_rss_mb", "MB"),
)

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def run_loop(workload, seconds: float, tracer=None):
    """Closed loop; with a tracer, odd-numbered operations are traced.

    Returns (untraced records, traced records, errors)."""
    from workloads import Record

    need = workload.min_ops if tracer is None else max(2, workload.min_ops)
    untraced, traced, errors, latencies = [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is not None and k % 2:
                tracer.op = k
                with tracer.active("op"):
                    traced.append(workload.op(k))
            else:
                untraced.append(workload.op(k))
        except Exception:  # a failed operation is counted, not fatal
            errors.append(Record(t0, time.perf_counter() - t0, {"error": traceback.format_exc()}))
        latencies.append(time.perf_counter() - t0)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed > HARD_CAP_S:
            break
        if k >= need and elapsed + statistics.median(latencies) > seconds:
            break
    return untraced, traced, errors


def _latency_metrics(latencies_s: list[float]) -> dict:
    from workloads import p90

    lat = [v * 1e3 for v in latencies_s]
    return {
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": p90(lat),
        "ops_per_s": len(lat) / sum(latencies_s),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cubeshadow" / "__init__.py").is_file():
        print(f"perfbench: no cubeshadow package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sampler = None if args.trace else SpeedSampler()
    if sampler is not None:
        sampler.start()
    try:
        return _run(args, sampler)
    finally:
        if sampler is not None:
            sampler.stop()


def _run(args, sampler) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import cubeshadow
    from tracing import LAYER_METRICS, OVERHEAD_METRICS, SETUP_METRICS, Tracer
    from workloads import WORKLOADS, source_digest

    if Path(cubeshadow.__file__).resolve().parent != SRC / "cubeshadow":
        print(f"perfbench: imported cubeshadow from {cubeshadow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    digest = source_digest(SRC / "cubeshadow", HERE)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR, digest)

    # Set-up intervals: imports, each repetition of setup(), make_inputs().
    intervals = [(T0, time.perf_counter())]
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        workload.setup()
        intervals.append((t0, time.perf_counter()))
    t0 = time.perf_counter()
    workload.make_inputs()
    intervals.append((t0, time.perf_counter()))

    def setup_time(span) -> float:
        d = [span(a, b) for a, b in intervals]
        return d[0] + statistics.median(d[1:-1]) + d[-1]

    setup_raw_s = setup_time(lambda a, b: b - a)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        t0 = time.perf_counter()
        with tracer.active("setup"):
            workload.setup()
        d = [b - a for a, b in intervals]
        traced_setup_s = d[0] + time.perf_counter() - t0 + d[-1]

    records, traced, errors = run_loop(workload, args.seconds, tracer)
    if sampler is not None:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = workload.check(records + traced) if records or traced else []
    rows += [("operation", False, e.parts["error"]) for e in errors]
    failed = [row for row in rows if not row[1]]
    for op, _ok, reason in failed[:20]:
        print(f"perfbench: FAILED {op}: {reason}", file=sys.stderr)
    if not records or (tracer is not None and not traced):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    raw = {"setup_s": setup_raw_s, **_latency_metrics([r.latency_s for r in records])}
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(records), "ops_traced": len(traced),
        "setup_intervals_s": [b - a for a, b in intervals],
        **workload.detail(records),
        "setup_s": setup_raw_s, "raw": raw, "peak_rss_mb": peak_rss_mb,
        "error_rate": len(failed) / max(len(rows), 1),
    }

    if tracer is None:
        norm = [sampler.normalize(r.start, r.start + r.latency_s) for r in records]
        e2e = {
            "setup_s": setup_time(sampler.normalize),
            **_latency_metrics(norm),
            "output_mb": statistics.median(r.output_bytes for r in records) / 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
        ref = [b - a for a, b in sampler.samples]
        detail["host_slowdown"] = statistics.median(ref) / NOMINAL_S if ref else None
        units = dict(E2E)
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name, _ in E2E}
    else:
        layer = tracer.metrics("op", len(traced))
        layer.update(tracer.metrics("setup", 1, SETUP_METRICS))
        traced_lat = _latency_metrics([r.latency_s for r in traced])
        layer["trace.overhead.setup_s"] = traced_setup_s - setup_raw_s
        for name in ("op_p50_ms", "op_p90_ms"):
            layer[f"trace.overhead.{name}"] = traced_lat[name] - raw[name]
        layer["trace.overhead.op_p50_pct"] = (
            100.0 * (traced_lat["op_p50_ms"] / raw["op_p50_ms"] - 1.0)
        )
        layer["trace.spans_per_op"] = tracer.span_count("op") / len(traced)
        units = {m[0]: m[1] for m in LAYER_METRICS + SETUP_METRICS + OVERHEAD_METRICS}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
        trace_file = WORKDIR / "trace" / f"{workload.name}-seed{args.seed}.json"
        tracer.save(trace_file, {"workload": workload.name, "seed": args.seed,
                                 "env": environment(), "metrics": layer})
        print(f"perfbench: spans written to {trace_file}", file=sys.stderr)

    print("env " + json.dumps(environment(), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
