"""End-to-end CLI runs: exit codes, artifacts, provenance, re-verification."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubeshadow
from cubeshadow import shadowing
from cubeshadow.cli import main

CAT = "toral [[2,1],[1,1]]"
PERTURBED = "perturbed [[2,1],[1,1]] eta=0.001 freq=1"


def run_json(path):
    return json.loads(path.read_text())


def test_certify_cat_writes_certificate(tmp_path, capsys):
    rc = main(["certify", "--map", CAT, "--m", "3", "--out", str(tmp_path)])
    assert rc == 0
    data = run_json(tmp_path / "certificate.json")
    assert data["command"] == "certify"
    assert data["config"]["m"] == 3
    assert data["certificate"]["margin"] > 0
    assert len(data["certificate"]["certificates"]) == 256
    out = capsys.readouterr().out
    assert "256 edges certified" in out


def test_certify_identity_fails_with_complete_report(tmp_path, capsys):
    rc = main(["certify", "--map", "identity", "--m", "3", "--out", str(tmp_path)])
    assert rc == 2
    data = run_json(tmp_path / "failure.json")
    rep = data["failure"]
    assert rep["certified"] == 0
    assert rep["total_edges"] == 576
    # every self-transition fails; boundary-contact neighbors are excluded
    failed = {(i, j) for i, j, _reason in rep["failures"]}
    assert failed == {(i, i) for i in range(64)}
    assert len(rep["excluded_boundary"]) == 512
    out = capsys.readouterr().out
    assert out.count("edge (") == 64


def test_certify_translation_fails(tmp_path):
    rc = main(
        ["certify", "--map", "translation [0.3,0.1]", "--m", "3", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert (tmp_path / "failure.json").exists()


@pytest.fixture(scope="module")
def cat_certificate(tmp_path_factory):
    out = tmp_path_factory.mktemp("cat3")
    assert main(["certify", "--map", CAT, "--m", "3", "--out", str(out)]) == 0
    return run_json(out / "certificate.json")


def test_verify_accepts_the_written_certificate(tmp_path, capsys, cat_certificate):
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(cat_certificate))
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 0
    assert capsys.readouterr().out.startswith(
        "verify: 4 classes re-checked from scratch, 256 certified edges derived, "
        "512 excluded edges checked"
    )


def _drop_half(cert):
    for key in sorted(cert["certificates"])[::2]:
        del cert["certificates"][key]


def _drop_one(cert):
    del cert["certificates"][sorted(cert["certificates"])[0]]


def _rekey(cert):
    key = sorted(cert["certificates"])[0]
    i, j = cert["excluded_boundary"][0]
    cert["certificates"][f"{i},{j}"] = cert["certificates"].pop(key)


def _swap_class(cert):
    key = sorted(cert["certificates"])[5]
    cert["certificates"][key] = (cert["certificates"][key] + 1) % len(cert["classes"])


def _move_class(cert):
    # A genuine covering, translated by one cube (source) and by A t mod 1
    # (target): only binding the rectangles to their cubes catches it.
    c = cert["classes"][0]["certificate"]
    for rect, t in ((c["source"], (0.125, 0.0)), (c["target"], (0.25, 0.125))):
        for end in ("lo", "hi"):
            rect["box"][end] = [v + dv for v, dv in zip(rect["box"][end], t)]
    c["h_range"] = [h + 0.125 for h in c["h_range"]]


def _inflate_margin(cert):
    c = cert["classes"][0]["certificate"]
    c["exit_margin"] *= 2.0
    cert["margin"] = min(
        min(k["certificate"]["exit_margin"], k["certificate"]["confinement_margin"])
        for k in cert["classes"]
    )


def _drop_excluded(cert):
    cert["excluded_boundary"].pop()


def _widen_strip(cert):
    # A strip running past both ends of the source's exit side.
    c = cert["classes"][0]["certificate"]
    lo, hi = c["h_range"]
    c["h_range"] = [lo - (hi - lo) / 2, hi + (hi - lo) / 2]


def _bool_class(cert):
    # true == 1 and false == 0, so a lenient reader takes them as indices.
    entries = cert["certificates"]
    for k in (0, 1):
        key = next(key for key in sorted(entries) if entries[key] == k)
        entries[key] = bool(k)


def _float_excluded(cert):
    i, j = cert["excluded_boundary"][0]
    cert["excluded_boundary"][0] = [i + 0.9, j + 0.5]


def _float_pair(cert):
    i, j = cert["classes"][0]["pair"]
    cert["classes"][0]["pair"] = [i + 0.4, j]


def _spaced_key(cert):
    # "i, j" names the same edge as "i,j": a second, unchecked entry for it.
    key = sorted(cert["certificates"])[0]
    cert["certificates"][key.replace(",", ", ")] = cert["certificates"][key]


def _exit_axis_one(cert):
    cert["classes"][0]["certificate"]["source"]["exit_axis"] = 1


def _flipped_orientation(cert):
    cert["classes"][0]["certificate"]["target"]["orientation"] = -1


@pytest.mark.parametrize(
    "tamper, rc, reason",
    [
        (_drop_half, 2, "interior-witnessed but not certified"),
        (_drop_one, 2, "interior-witnessed but not certified"),
        (_rekey, 2, "certified but not an interior-witnessed graph edge"),
        (_swap_class, 2, "is not its translation class"),
        (_move_class, 2, "rectangles leave the cubes"),
        (_inflate_margin, 2, "covering fails re-checking"),
        (_drop_excluded, 2, "missing from excluded_boundary"),
        (_widen_strip, 2, "covering fails re-checking"),
        (_bool_class, 4, "must name a class index"),
        (_float_excluded, 4, "excluded_boundary must hold pairs of integer indices"),
        (_float_pair, 4, "class 0 must hold pairs of integer indices"),
        (_spaced_key, 4, "is not the canonical"),
        (_exit_axis_one, 4, "rectangle exit_axis must be the integer 0, not 1"),
        (_flipped_orientation, 4, "rectangle orientation must be the integer 1, not -1"),
    ],
    ids=["drop-half", "drop-one", "rekey", "swap-class", "move-class",
         "inflate-margin", "drop-excluded", "widen-strip", "bool-class",
         "float-excluded", "float-pair", "spaced-key", "exit-axis-one",
         "flipped-orientation"],
)
def test_verify_rejects_a_tampered_certificate(
    tmp_path, capsys, cat_certificate, tamper, rc, reason
):
    # Exit 2 is a certificate that audits wrong; exit 4 one that cannot be read.
    data = json.loads(json.dumps(cat_certificate))
    tamper(data["certificate"])
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == rc
    out, err = capsys.readouterr()
    if rc == 2:
        assert "REJECTED" in out
        assert reason in out
    else:
        assert reason in err


def test_verify_rejects_an_invalid_embedded_knob(tmp_path, capsys, cat_certificate):
    data = json.loads(json.dumps(cat_certificate))
    data["config"]["refine_depth"] = -1
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 4
    assert "refine_depth must be >= 0" in capsys.readouterr().err


def test_verify_rebuilds_with_the_embedded_knobs(tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(["certify", "--map", CAT, "--m", "3", "--samples-per-cube", "6",
               "--strip-depth", "4", "--out", str(out)])
    assert rc == 0
    config = run_json(out / "certificate.json")["config"]
    assert (config["samples_per_cube"], config["strip_depth"]) == (6, 4)
    capsys.readouterr()
    assert main(["verify", str(out / "certificate.json"), "--out", str(tmp_path / "v")]) == 0
    assert capsys.readouterr().out.startswith("verify: ")


def test_shadow_rejects_delta_at_separation_bound(tmp_path, capsys):
    rc = main(
        ["shadow", "--map", CAT, "--m", "3", "--delta", "0.2",
         "--window", "5", "--out", str(tmp_path)]
    )
    assert rc == 4
    assert "separation bound" in capsys.readouterr().err


def test_shadow_pipeline_then_verify(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["shadow", "--map", CAT, "--m", "3", "--delta", "1e-4",
         "--window", "15", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    data = run_json(out / "shadow.json")
    assert data["verify"]["ok"] is True
    assert data["result"]["eps_achieved"] <= data["eps"]
    assert (out / "orbit.csv").read_text().startswith("k,y_1,y_2,x_1,x_2,err")
    assert "orbit.csv" in data["artifacts_sha256"]
    assert "certificate.json" in data["artifacts_sha256"]
    rc = main(["verify", str(out / "shadow.json"), "--out", str(tmp_path / "v")])
    assert rc == 0
    assert "matching the stored verdict" in capsys.readouterr().out


def test_verify_flags_tampered_shadow_result(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(
        ["shadow", "--map", CAT, "--m", "3", "--delta", "1e-4",
         "--window", "10", "--seed", "5", "--out", str(out)]
    ) == 0
    path = out / "shadow.json"
    data = run_json(path)
    data["result"]["point_exact"] = None
    data["result"]["point"] = [
        (data["result"]["point"][0] + 0.2) % 1.0, data["result"]["point"][1]
    ]
    path.write_text(json.dumps(data))
    rc = main(["verify", str(path), "--out", str(tmp_path / "v")])
    assert rc == 2
    assert "DISAGREES" in capsys.readouterr().out


def test_config_file_reruns_reproduce_bytes(tmp_path):
    cfg = tmp_path / "run.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({
        "map": CAT, "m": 3, "delta": 1e-4, "window": 10,
        "seed": 11, "out": str(out),
    }))
    assert main(["shadow", "--config", str(cfg)]) == 0
    first = (out / "shadow.json").read_bytes()
    cert_first = (out / "certificate.json").read_bytes()
    assert main(["shadow", "--config", str(cfg)]) == 0
    assert (out / "shadow.json").read_bytes() == first
    assert (out / "certificate.json").read_bytes() == cert_first
    data = json.loads(first)
    assert "run.json" in data["inputs_sha256"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    for key, value in (("bogus_knob", 1), ("workers", 1), ("policy", "anchored")):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"map": CAT, key: value}))
        rc = main(["certify", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 4
        assert key in capsys.readouterr().err


def test_pseudo_orbit_file_feeds_shadow(tmp_path):
    gen = tmp_path / "gen"
    rc = main(
        ["pseudo", "--map", CAT, "--delta", "1e-4", "--window", "12",
         "--seed", "7", "--out", str(gen)]
    )
    assert rc == 0
    orbit = run_json(gen / "orbit.json")
    assert orbit["max_defect"] < orbit["orbit"]["delta"]
    assert (gen / "orbit.csv").read_text().startswith("k,y_1,y_2")
    out = tmp_path / "sh"
    rc = main(
        ["shadow", "--map", CAT, "--m", "3", "--orbit", str(gen / "orbit.json"),
         "--out", str(out)]
    )
    assert rc == 0
    data = run_json(out / "shadow.json")
    assert "orbit.json" in data["inputs_sha256"]
    assert data["orbit"]["points"] == orbit["orbit"]["points"]


def test_periodic_recovers_the_origin(tmp_path):
    out = tmp_path / "per"
    rc = main(
        ["periodic", "--map", CAT, "--m", "3", "--x0", "0,0", "--period", "1",
         "--delta", "1e-4", "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    data = run_json(out / "periodic.json")
    assert data["result"]["periodic"] == 1
    x = data["result"]["point"]
    assert min(abs(x[0]), 1 - x[0]) < 1e-6 and min(abs(x[1]), 1 - x[1]) < 1e-6
    assert data["verify"]["ok"] is True



@pytest.mark.parametrize("command", ["shadow", "oracle"])
def test_orbit_file_is_checked_against_its_delta(tmp_path, capsys, command):
    gen = tmp_path / "gen"
    rc = main(["pseudo", "--map", CAT, "--delta", "0.02", "--window", "20",
               "--out", str(gen)])
    assert rc == 0
    data = run_json(gen / "orbit.json")
    data["orbit"]["delta"] = 1e-4  # far below the orbit's actual defects
    orbit = tmp_path / "orbit.json"
    orbit.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = main([command, "--map", CAT, "--m", "3", "--orbit", str(orbit),
               "--out", str(out)])
    assert rc == 4
    assert "is not below the stated delta 0.0001" in capsys.readouterr().err
    assert not (out / "certificate.json").exists()


@pytest.mark.parametrize("command", ["shadow", "periodic"])
def test_orbit_file_of_the_wrong_dimension_is_invalid(tmp_path, capsys, command):
    orbit = tmp_path / "orbit.json"
    orbit.write_text(json.dumps(
        {"points": [[0.1, 0.2, 0.3]], "delta": 1e-4, "space": "torus", "periodic": 1}
    ))
    rc = main([command, "--map", CAT, "--m", "3", "--orbit", str(orbit),
               "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "pseudo-orbit dimension does not match the map" in capsys.readouterr().err

def test_splice_shadows_periodically_and_reverifies(tmp_path, capsys):
    out = tmp_path / "sp"
    rc = main(
        ["splice", "--map", CAT, "--m", "4", "--start", "1/7,2/7",
         "--start", "5/9,7/9", "--segment-length", "5", "--gap", "8",
         "--eps", "0.2", "--out", str(out)]
    )
    assert rc == 0
    spliced = run_json(out / "splice.json")
    assert spliced["orbit"]["periodic"] == len(spliced["orbit"]["points"])
    assert spliced["segment_lengths"] == [5, 5]
    data = run_json(out / "periodic.json")
    assert data["result"]["minimal_period"] == spliced["orbit"]["periodic"]
    assert main(["verify", str(out / "periodic.json"),
                 "--out", str(tmp_path / "v")]) == 0


def test_oracle_linear_shadow_artifact(tmp_path):
    out = tmp_path / "or"
    rc = main(
        ["oracle", "--map", CAT, "--delta", "1e-4", "--window", "20",
         "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    data = run_json(out / "oracle.json")
    assert data["shadow"]["source"] == "oracle"
    assert data["shadow"]["max_error"] < 3e-4
    assert (out / "oracle.csv").read_text().startswith("k,y_1,y_2,x_1,x_2,err")


def test_oracle_fixed_point_census(tmp_path, capsys):
    out = tmp_path / "fp"
    rc = main(
        ["oracle", "--task", "fixed-points", "--map", CAT, "--period", "2",
         "--grid", "200", "--out", str(out)]
    )
    assert rc == 0
    data = run_json(out / "oracle.json")
    assert len(data["fixed_points"]["points"]) == 5
    assert not data["fixed_points"]["degenerate"]
    assert "5 period-2 points" in capsys.readouterr().out


def test_oracle_refuses_nonhyperbolic_map(tmp_path, capsys):
    rc = main(["oracle", "--map", "identity", "--delta", "0.01",
               "--window", "5", "--out", str(tmp_path)])
    assert rc == 2
    assert "certification failure" in capsys.readouterr().err


def test_graph_exports_dot_and_json(tmp_path):
    out = tmp_path / "g"
    rc = main(["graph", "--map", CAT, "--m", "2", "--out", str(out)])
    assert rc == 0
    dot = (out / "graph.dot").read_text()
    assert dot.startswith("// command: graph")
    assert "digraph transitions" in dot
    data = run_json(out / "graph.json")
    assert data["graph"]["m"] == 2
    assert len(data["graph"]["edges"]) > 0


def test_delta_bound_artifact(tmp_path):
    out = tmp_path / "db"
    rc = main(["delta-bound", "--map", CAT, "--m", "3", "--out", str(out)])
    assert rc == 0
    data = run_json(out / "delta_bound.json")
    assert data["delta_bound"] == pytest.approx(0.05587461037041208, abs=1e-15)


def test_delta_bound_uncertain_edges_exhaust(tmp_path, capsys):
    rc = main(["delta-bound", "--map", "standard k=0.3", "--m", "2",
               "--refine-depth", "0", "--out", str(tmp_path)])
    assert rc == 3
    assert "uncertain edges" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, artifact",
    [
        ("shadow", [], "shadow.json"),
        ("periodic", ["--period", "1", "--x0", "0,0"], "periodic.json"),
    ],
    ids=["shadow", "periodic"],
)
def test_allow_uncertain_reaches_the_itinerary_gate(tmp_path, command, extra, artifact):
    # At m=2 the perturbed cat map keeps uncertain edges, so the itinerary's
    # delta gate exhausts unless the flag lets them count as nonempty.
    base = [command, "--map", PERTURBED, "--m", "2", *extra]
    assert main(base + ["--out", str(tmp_path / "strict")]) == 3
    out = tmp_path / "allowed"
    assert main(base + ["--allow-uncertain", "--out", str(out)]) == 0
    assert main(["verify", str(out / artifact), "--out", str(tmp_path / "v")]) == 0


@pytest.mark.parametrize(
    "command, extra",
    [("shadow", []), ("periodic", ["--period", "1", "--x0", "0,0"])],
    ids=["shadow", "periodic"],
)
def test_one_request_checks_its_itinerary_once(tmp_path, monkeypatch, command, extra):
    calls = []
    real = shadowing._checked_itinerary

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shadowing, "_checked_itinerary", counted)
    assert main([command, "--map", CAT, "--m", "3", *extra, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_subdivide_reports_mesh(tmp_path):
    out = tmp_path / "s"
    rc = main(["subdivide", "--n", "2", "--m", "5", "--out", str(out)])
    assert rc == 0
    data = run_json(out / "subdivision.json")
    assert data["subdivision"]["count"] == 1024
    assert data["chi"] == pytest.approx(2 ** -5 * 2 ** 0.5, abs=1e-15)


def test_identity_drift_pipeline_fails_at_certification(tmp_path):
    rc = main(
        ["shadow", "--map", "identity", "--mode", "drift", "--delta", "0.025",
         "--window", "10", "--m", "3", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert (tmp_path / "failure.json").exists()


def test_usage_and_validation_errors_exit_four(tmp_path, capsys):
    assert main(["bogus"]) == 4
    assert main(["certify", "--map", "nosuch map", "--m", "3",
                 "--out", str(tmp_path)]) == 4
    assert main(["shadow", "--map", CAT, "--window", "0",
                 "--out", str(tmp_path)]) == 4
    assert main(["periodic", "--map", CAT, "--m", "3", "--x0", "0.1,0.1",
                 "--period", "1", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "not periodic" in err


def test_periodic_accepts_a_lift_of_a_periodic_point(tmp_path):
    # 6/5,2/5 is 1/5,2/5 mod 1, so both starts give the same periodic shadow.
    runs = []
    for name, x0 in (("reduced", "1/5,2/5"), ("lift", "6/5,2/5")):
        out = tmp_path / name
        assert main(["periodic", "--map", CAT, "--m", "3", "--period", "2",
                     "--x0", x0, "--out", str(out)]) == 0
        runs.append(((out / "orbit.csv").read_text(),
                     run_json(out / "periodic.json")["result"]))
    assert runs[0] == runs[1]


def test_non_periodic_rational_start_is_printed_as_typed(tmp_path, capsys):
    assert main(["periodic", "--map", CAT, "--m", "3", "--period", "2",
                 "--x0", "6/5,3/5", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "x0 6/5,3/5 is not periodic with period 2 (exact check)" in err


def test_endomorphism_error_prints_plain_floats(tmp_path, capsys):
    rc = main(["graph", "--map", "translation [0.3,0.1]", "--space", "cube", "--m", "2",
               "--out", str(tmp_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "maps the cube outside itself: enclosure [0.29999999999999977, " in err
    assert "np.float64" not in err


def test_verify_rejects_unrecognized_artifact(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert main(["pseudo", "--map", CAT, "--delta", "1e-4", "--window", "5",
                 "--seed", "0", "--out", str(gen)]) == 0
    rc = main(["verify", str(gen / "orbit.json"), "--out", str(tmp_path / "v")])
    assert rc == 4
    assert "unrecognized artifact" in capsys.readouterr().err


def test_module_entry_point_runs():
    # The child imports the package this test imported, installed or not.
    src = str(Path(cubeshadow.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cubeshadow.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "subdivide" in proc.stdout and "verify" in proc.stdout
