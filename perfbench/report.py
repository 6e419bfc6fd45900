"""Run every workload once and print all metrics by name and unit.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--trace] [--out FILE]

Each workload runs in its own ``perfbench/run.py`` process, one after the
other, so peak memory is per workload.  The table gives the roadmap's
metrics (certify_s, graph_s, shadow_p90_ms, error_rate, ...) as raw wall
times from each run's ``detail`` line, the host slowdown measured during
the run, then the normalized end-to-end metrics of the result line, and
with ``--trace`` the per-layer metrics of a traced run.  ``--out`` writes
everything, environment included, as JSON.  Exits 1 if any operation
failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402

# The roadmap's per-workload metrics: (name, unit, workloads that report it).
NAMED = (
    ("setup_s", "s", WORKLOAD_NAMES),
    ("certify_s", "s", ("cat-certify",)),
    ("verify_s", "s", ("cat-certify",)),
    ("certificate_mb", "MB", ("cat-certify",)),
    ("graph_s", "s", ("nonlinear-graph",)),
    ("uncertain_edges", "count", ("nonlinear-graph",)),
    ("shadow_p50_ms", "ms", ("cat-shadow",)),
    ("shadow_p90_ms", "ms", ("cat-shadow",)),
    ("shadow_samples", "count", ("cat-shadow",)),
    ("shadows_per_s", "1/s", ("cat-shadow",)),
    ("peak_rss_mb", "MB", WORKLOAD_NAMES),
    ("error_rate", "ratio", WORKLOAD_NAMES),
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    out = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, body = line.partition(" ")
        if key in ("env", "detail"):
            out[key] = json.loads(body)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = {w: run_once(w, args.seed, args.seconds, 0) for w in WORKLOAD_NAMES}
    print(f"{'metric':<16}{'unit':<8}" + "".join(f"{w:>18}" for w in WORKLOAD_NAMES))
    for name, unit, where in NAMED:
        cells = "".join(
            f"{runs[w]['detail'][name]:>18.6g}" if w in where else f"{'-':>18}"
            for w in WORKLOAD_NAMES
        )
        print(f"{name:<16}{unit:<8}{cells}")
    slow = "".join(f"{runs[w]['detail']['host_slowdown']:>18.3f}" for w in WORKLOAD_NAMES)
    print(f"{'host_slowdown':<16}{'ratio':<8}{slow}")
    print("end-to-end (result line, normalized to the nominal host speed):")
    for name, body in runs[WORKLOAD_NAMES[0]]["result"]["metrics"].items():
        cells = "".join(
            f"{runs[w]['result']['metrics'][name]['value']:>18.6g}" for w in WORKLOAD_NAMES
        )
        print(f"  {name:<14}{body['unit']:<8}{cells}")

    traced = {}
    if args.trace:
        traced = {w: run_once(w, args.seed, args.seconds, 1) for w in WORKLOAD_NAMES}
        print("per layer (traced run):")
        first = traced[WORKLOAD_NAMES[0]]["result"]["metrics"]
        for name, body in first.items():
            cells = "".join(
                f"{traced[w]['result']['metrics'][name]['value']:>18.6g}" for w in WORKLOAD_NAMES
            )
            print(f"  {name:<44}{body['unit']:<7}{cells}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs, "traced": traced}, indent=2) + "\n")
    failed = sum(r["result"]["failed"] for r in list(runs.values()) + list(traced.values()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
