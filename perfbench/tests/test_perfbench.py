"""Tests of the benchmark itself, at reduced size.

They show that its checks are not vacuous (a moved shadow point, a graph
witness whose image leaves its target, an inflated empty-pair gap and a
changed certificate byte each count as a failed operation), that the
tracer restores the program it patched, and that the metric names agree
with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cubeshadow.transition as transition  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SmallCertify(workloads.CatCertify):
    m = 3


class SmallGraph(workloads.NonlinearGraph):
    runs = (("standard", workloads.STANDARD, 2), ("perturbed", workloads.PERTURBED, 2))


class SmallShadow(workloads.CatShadow):
    blocks = 1


def _failures(rows):
    return [row for row in rows if not row[1]]


def test_certificate_byte_change_fails(tmp_path):
    w = SmallCertify(0, tmp_path, "test")
    w.setup()
    w.make_inputs()
    records = [w.op(0), w.op(1)]
    assert _failures(w.check(records)) == []
    path = records[1].parts["out"] / "certificate.json"
    raw = bytearray(path.read_bytes())
    at = raw.index(b'"margin": ') + len(b'"margin": ') + 3
    raw[at] = ord("7") if raw[at] != ord("7") else ord("3")
    path.write_bytes(bytes(raw))
    bad = _failures(w.check(records))
    assert [row[0] for row in bad] == ["certify"]
    assert "sha256" in bad[0][2]


def test_certificate_determinism_across_runs(tmp_path):
    first = SmallCertify(0, tmp_path, "test")
    first.setup()
    rec = first.op(0)
    assert _failures(first.check([rec])) == []
    assert first.digest_file.exists()
    path = rec.parts["out"] / "certificate.json"
    path.write_text(path.read_text().replace('"policy": "anchored"', '"policy": "anchoreD"'))
    again = SmallCertify(1, tmp_path, "test")
    assert [row[0] for row in _failures(again.check([rec]))] == ["certify"]


def _graph_file(tmp_path):
    w = SmallGraph(0, tmp_path, "test")
    w.setup()
    w.make_inputs()
    rec = w.op(0)
    assert _failures(w.check([rec])) == []
    return w, rec, rec.parts["standard"]["out"] / "graph.json"


def test_graph_witness_leaving_target_fails(tmp_path):
    w, rec, path = _graph_file(tmp_path)
    data = json.loads(path.read_text())
    edge = next(e for e in data["graph"]["edges"] if e[2] == "certified_nonempty")
    side = 1 << data["graph"]["m"]
    row, col = divmod(edge[1], side)
    edge[1] = ((row + side // 2) % side) * side + (col + side // 2) % side
    path.write_text(json.dumps(data))
    bad = _failures(w.check([rec]))
    assert [row[0] for row in bad] == ["graph standard"]
    assert "outside cube" in bad[0][2]


def test_graph_inflated_gap_fails(tmp_path):
    w, rec, path = _graph_file(tmp_path)
    data = json.loads(path.read_text())
    gaps = data["graph"]["near_empty_gaps"]
    assert gaps, "the reduced graph should store near-miss gaps"
    gaps[next(iter(gaps))] = 10.0
    path.write_text(json.dumps(data))
    bad = _failures(w.check([rec]))
    assert [row[0] for row in bad] == ["graph standard"]
    assert "below certified gap" in bad[0][2]


def test_moved_shadow_point_fails():
    w = SmallShadow(3, Path("."), "test")
    w.setup()
    w.make_inputs()
    kinds = [req.kind for req in w.requests]
    picks = [kinds.index(kind) for kind in ("shadow", "periodic", "splice")]
    records = [w.op(k) for k in picks]
    assert _failures(w.check(records)) == []
    shadow_rec = records[0]
    res = shadow_rec.parts["result"]
    step = Fraction(2.0 * shadow_rec.parts["request"].eps)
    moved = dataclasses.replace(res, point=tuple(v + step for v in res.point))
    shadow_rec.parts["result"] = moved
    bad = _failures(w.check(records))
    assert [row[0] for row in bad] == ["shadow"]
    assert "verify_shadow" in bad[0][2]


def test_periodic_minimal_period_checked():
    w = SmallShadow(4, Path("."), "test")
    w.setup()
    w.make_inputs()
    k = next(i for i, req in enumerate(w.requests) if req.kind == "periodic" and req.period > 1)
    rec = w.op(k)
    assert _failures(w.check([rec])) == []
    rec.parts["request"] = dataclasses.replace(rec.parts["request"], period=rec.parts["request"].period * 2)
    assert len(_failures(w.check([rec]))) == 1


def test_tracer_counts_and_restores():
    import cubeshadow.dynamics as dynamics
    import cubeshadow.geometry as geometry

    original = transition.eval_box
    tracer = tracing.Tracer()
    f = dynamics.builtin_map(workloads.STANDARD)
    s = geometry.make_subdivision(2, 2, geometry.Space.TORUS)
    with tracer.active("op"):
        assert transition.eval_box is not original
        g = transition.build_graph(f, s)
    assert transition.eval_box is original
    m = tracer.metrics("op", 1)
    assert m["dynamics.eval_box.calls"] > 0
    assert m["transition.edges_nonempty"] == g.nonempty_count
    assert 0.0 < m["transition.build_graph.self_s"] < m["transition.build_graph.s"]
    assert m["covering.check_covering.calls"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    layer = tracing.LAYER_METRICS + tracing.SETUP_METRICS + tracing.OVERHEAD_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row[:3]) for row in layer
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    mapped = {name for entry in layers for name in entry["metrics"]}
    assert mapped == {row[0] for row in tracing.LAYER_METRICS + tracing.SETUP_METRICS}


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cat-shadow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_shadow_inputs_follow_the_seed():
    w = SmallShadow(5, Path("."), "test")
    w.setup()
    drawn = []
    for seed in (5, 5, 6):
        w.seed = seed
        w.make_inputs()
        drawn.append([req.orbit if req.kind == "splice" else req.orbit.points
                      for req in w.requests])
    assert drawn[0] == drawn[1]
    assert drawn[0] != drawn[2]


def test_speed_normalization():
    import signal

    import speed

    s = speed.SpeedSampler()
    nominal = speed.NOMINAL_S
    # The host ran the reference at half speed; 0.1 s went to samples.
    s.samples = [(t, t + 2 * nominal) for t in (0.0, 1.0, 2.0, 3.0)]
    s.samples.append((5.0, 5.1))
    assert abs(s.normalize(4.0, 6.0) - (2.0 - 0.1) / 2) < 1e-9
    before = signal.getsignal(signal.SIGALRM)
    live = speed.SpeedSampler(period=0.05)
    live.start()
    speed.time.sleep(0.5)
    live.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(live.samples) >= 5
