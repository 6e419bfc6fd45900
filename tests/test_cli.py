"""End-to-end CLI runs: exit codes, artifacts, provenance, re-verification."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeshadow
from cubeshadow import cli, covering, geometry, shadowing, transition
from cubeshadow.cli import main

CAT = "toral [[2,1],[1,1]]"
PERTURBED = "perturbed [[2,1],[1,1]] eta=0.001 freq=1"


def run_json(path):
    return json.loads(path.read_text())


def _set_leaf(data, keys, value):
    """Set the value at a path of keys and list indices in a JSON document."""
    *parents, key = keys
    for parent in parents:
        data = data[parent]
    data[key] = value


@pytest.fixture(autouse=True)
def json_artifacts_are_stdlib_text(monkeypatch):
    """Every JSON artifact a run in this module writes is, byte for byte, the
    stdlib's compact sort_keys=True rendering of what it holds, plus a newline."""
    record = cli.Run._record

    def checked(run, name, text):
        path = record(run, name, text)
        if name.endswith(".json"):
            raw = path.read_bytes().decode()
            assert raw == json.dumps(json.loads(raw), sort_keys=True) + "\n", path
        return path

    monkeypatch.setattr(cli.Run, "_record", checked)


def test_digests_are_of_the_file_bytes(tmp_path):
    # CRLF line endings: a digest of the decoded text would miss the \r bytes.
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps({"map": CAT, "m": 3, "window": 8}, indent=2)
                    .replace("\n", "\r\n").encode())
    assert main(["pseudo", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    orbit = tmp_path / "orbit.json"
    orbit.write_bytes((tmp_path / "p" / "orbit.json").read_bytes().replace(b"\n", b"\r\n"))
    out = tmp_path / "s"
    assert main(["shadow", "--config", str(cfg), "--orbit", str(orbit), "--out", str(out)]) == 0
    data = run_json(out / "shadow.json")
    for name, path in (("cfg.json", cfg), ("orbit.json", orbit)):
        assert data["inputs_sha256"][name] == hashlib.sha256(path.read_bytes()).hexdigest()
    for name in ("orbit.csv", "certificate.json"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert data["artifacts_sha256"][name] == digest


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
    # The excluded contacts are counted, not listed: failure.json has them.
    assert "  512 excluded boundary contacts, listed in failure.json\n" in out
    assert max(map(len, out.splitlines())) < 120


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


def _bool_orientation(cert):
    # true == 1, so a lenient reader takes it as the orientation +1.
    cert["classes"][0]["certificate"]["orientation"] = True


def _string_h_range(cert):
    c = cert["classes"][0]["certificate"]
    c["h_range"] = [repr(h) for h in c["h_range"]]


def _string_margin(cert):
    c = cert["classes"][0]["certificate"]
    c["confinement_margin"] = repr(c["confinement_margin"])


def _listed_certificates(cert):
    cert["certificates"] = [[key, k] for key, k in cert["certificates"].items()]


def _letter_key(cert):
    cert["certificates"]["a,b"] = 0


def _triple_key(cert):
    cert["certificates"]["1,2,3"] = 0


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
        (_bool_class, 4, "certificates must be a JSON integer, not False"),
        (_float_excluded, 4, "excluded_boundary must be a JSON integer, not 0.9"),
        (_float_pair, 4, "class 0 pair must be a JSON integer, not 0.4"),
        (_spaced_key, 4, "is not the canonical"),
        (_exit_axis_one, 4, "rectangle exit_axis must be the integer 0, not 1"),
        (_flipped_orientation, 4, "rectangle orientation must be the integer 1, not -1"),
        (_bool_orientation, 4, "certificate orientation must be a JSON integer, not True"),
        (_string_h_range, 4, "certificate h_range must be a JSON number, not '0."),
        (_string_margin, 4, "certificate confinement_margin must be a JSON number, not '0."),
        (_listed_certificates, 4, "certificates must be a JSON object"),
        (_letter_key, 4, "certificate key 'a,b' is not a pair"),
        (_triple_key, 4, "certificate key '1,2,3' is not a pair"),
    ],
    ids=["drop-half", "drop-one", "rekey", "swap-class", "move-class",
         "inflate-margin", "drop-excluded", "widen-strip", "bool-class",
         "float-excluded", "float-pair", "spaced-key", "exit-axis-one",
         "flipped-orientation", "bool-orientation", "string-h-range",
         "string-margin", "listed-certificates", "letter-key", "triple-key"],
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


_SOURCE = ("certificate", "classes", 0, "certificate", "source")


@pytest.mark.parametrize(
    "keys, value, name",
    [(_SOURCE + ("box", "lo"), ["0.008568250453832638"] * 2, "rectangle lo"),
     (_SOURCE + ("frame", 0), ["0.8506508083520399", "0.5257311121191335"], "rectangle frame"),
     (("certificate", "subdivision", "m"), 3.9, "subdivision m"),
     (("certificate", "subdivision", "n"), "2", "subdivision n"),
     (("certificate", "subdivision", "count"), 64.0, "subdivision count"),
     (("certificate", "map_id"), 5, "map_id"),
     (("certificate", "margin"), "0.014018092143843912", "margin"),
     (("config", "allow_uncertain"), 0, "config key 'allow_uncertain'"),
     (("config", "samples_per_cube"), True, "config key 'samples_per_cube'"),
     (("certificate",), 5, "certificate"),
     (("certificate", "subdivision"), [1], "subdivision"),
     (("certificate", "classes"), {"0": 1}, "classes"),
     (("certificate", "classes", 0), [1], "class 0"),
     (("certificate", "classes", 0, "certificate"), [1], "certificate"),
     (_SOURCE, 5, "rectangle"),
     (_SOURCE + ("box",), [1], "rectangle box"),
     (("config",), [1], "config")],
)
def test_mistyped_certificate_exits_4(tmp_path, capsys, cat_certificate, keys, value, name):
    # The values of a class, of the subdivision and of the embedded knobs
    # are read like every other: a string that float() would take, a float
    # that int() would truncate, a 0 for false or a list for an object is
    # refused, key named.
    data = json.loads(json.dumps(cat_certificate))
    _set_leaf(data, keys, value)
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 4
    assert f"{name} must be a JSON" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "key, value",
    [("delta", "0.0001"), ("lo", -10.9), ("lo", True), ("periodic", 1.0), ("points", "0.5")],
)
def test_mistyped_orbit_file_exits_4(tmp_path, capsys, key, value):
    # An orbit file's values are type-checked, never coerced.
    gen = tmp_path / "gen"
    assert main(["pseudo", "--map", CAT, "--m", "3", "--window", "10", "--out", str(gen)]) == 0
    data = run_json(gen / "orbit.json")
    data["orbit"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["shadow", "--m", "3", "--orbit", str(bad), "--out", str(tmp_path / "sh")])
    assert rc == 4
    assert f"{key} must be a JSON" in capsys.readouterr().err


@pytest.fixture(scope="module")
def shadow_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("shadow")
    assert main(
        ["shadow", "--map", CAT, "--m", "3", "--delta", "1e-4",
         "--window", "10", "--seed", "5", "--out", str(out)]
    ) == 0
    return out / "shadow.json"


@pytest.mark.parametrize(
    "keys, value, name",
    [(("result", "window"), [-10.5, 10], "window"), (("result", "window"), [-10], "window"),
     (("result", "eps_achieved"), "0.1", "eps_achieved"),
     (("result", "point"), [True, 0.5], "point"),
     (("result", "minimal_period"), 2.0, "minimal_period"),
     (("eps",), "0.1", "eps"), (("verify", "ok"), 0, "verify ok"),
     (("config", "map"), 5, "config key 'map'"),
     (("result", "point_exact"), ["1/0", "1/3"], "point_exact"),
     (("result", "point_exact"), ["one third", "1/3"], "point_exact"),
     (("result", "point_exact"), False, "point_exact"),
     (("result", "point_exact"), 0.0, "point_exact"),
     (("result", "point_exact"), "", "point_exact"),
     (("result", "surviving_box"), [1], "surviving_box"),
     (("result",), [1], "result"), (("verify",), [1], "verify"),
     (("orbit",), [1], "orbit"), (("config",), 5, "config")],
)
def test_mistyped_shadow_file_exits_4(tmp_path, capsys, shadow_file, keys, value, name):
    # verify reads a shadow.json's values type-checked, never coerced; a
    # null point_exact is absent, any other value must list rationals.
    data = run_json(shadow_file)
    data["result"]["point_exact"] = None
    _set_leaf(data, keys, value)
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 4
    assert f"{name} must be a JSON" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", [None, "lo", "hi"])
def test_verify_replays_the_surviving_box(tmp_path, capsys, shadow_file, tamper):
    # verify rebuilds the step chain from the stored orbit: the untouched
    # file passes, and a box coordinate one ulp off is refused.
    data = run_json(shadow_file)
    if tamper is not None:
        box = data["result"]["surviving_box"]
        box[tamper][1] = math.nextafter(box[tamper][1], math.inf)
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["verify", str(path), "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    if tamper is None:
        assert rc == 0 and "matching the stored verdict" in out
    else:
        assert rc == 2 and "surviving box" in out and "DISAGREES" in out


@pytest.mark.parametrize("axis, by", [(0, 0.3), (1, 0.18)], ids=["x", "y"])
def test_verify_refuses_a_chain_that_outgrows_a_torus_chart(tmp_path, capsys, shadow_file,
                                                            axis, by):
    # An orbit point moved this far sizes the rebuilt chain past a torus
    # chart: the stored claim does not close, exit 2, not invalid input.
    data = run_json(shadow_file)
    data["orbit"]["points"][12][axis] += by
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 2
    assert "step chain rebuilt from the stored orbit DISAGREES" in capsys.readouterr().out


def test_verify_refuses_an_orbit_of_the_wrong_dimension(tmp_path, capsys, shadow_file):
    # A malformed file is still invalid input, exit 4.
    data = run_json(shadow_file)
    for point in data["orbit"]["points"]:
        point.append(0.5)
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 4
    assert "orbit dimension 3 != map dimension 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, shown",
    [("eps_achieved", 1e-9, "1e-09"), ("window", [-3, 99], "(-3, 99)")],
)
def test_verify_replays_the_achieved_eps_and_the_window(tmp_path, capsys, shadow_file,
                                                        key, value, shown):
    # eps_achieved must be the recomputed max error, bit for bit, and the
    # window the orbit's.
    data = run_json(shadow_file)
    data["result"][key] = value
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"verify: recomputed {key} ") and f"DISAGREES with stored {shown}" in out


def test_verify_refuses_a_periodicity_claim_on_an_aperiodic_orbit(tmp_path, capsys, shadow_file):
    # The orbit of this shadow is not periodic, so a file edited to claim
    # period 3 with minimal period 7 is refused.
    data = run_json(shadow_file)
    data["result"]["periodic"], data["result"]["minimal_period"] = 3, 7
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 2
    assert "recomputed periodic None DISAGREES with stored 3" in capsys.readouterr().out


@pytest.fixture(scope="module")
def periodic_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("periodic")
    assert main(["periodic", "--map", CAT, "--m", "3", "--period", "2", "--x0", "1/5,2/5",
                 "--out", str(out)]) == 0
    return out / "periodic.json"


@pytest.mark.parametrize(
    "periodic, minimal, shown",
    [(2, 2, None), (2, 1, "minimal_period 2 DISAGREES with stored 1"),
     (4, 2, "periodic 2 DISAGREES with stored 4"),
     (None, 2, "minimal_period None DISAGREES with stored 2"),
     (2, None, "minimal_period 2 DISAGREES with stored None")],
)
def test_verify_replays_the_periodicity_claim(tmp_path, capsys, periodic_file, periodic,
                                              minimal, shown):
    # A periodic claim must be the orbit's period, and the exact point's
    # minimal period is solved again; the untouched file passes.
    data = run_json(periodic_file)
    assert (data["result"]["periodic"], data["result"]["minimal_period"]) == (2, 2)
    data["result"]["periodic"], data["result"]["minimal_period"] = periodic, minimal
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["verify", str(path), "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    if shown is None:
        assert rc == 0 and "matching the stored verdict" in out
    else:
        assert rc == 2 and f"verify: recomputed {shown}" in out


def test_verify_refuses_a_minimal_period_for_a_float_point(tmp_path, capsys):
    # Newton's periodic points are floats, whose minimal period is not
    # claimed: a file that claims one is refused.
    assert main(["periodic", "--map", PERTURBED, "--m", "2", "--period", "1", "--x0", "0,0",
                 "--allow-uncertain", "--out", str(tmp_path)]) == 0
    data = run_json(tmp_path / "periodic.json")
    data["result"]["minimal_period"] = 1
    (tmp_path / "periodic.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "periodic.json"), "--out", str(tmp_path / "v")]) == 2
    assert "recomputed minimal_period None DISAGREES with stored 1" in capsys.readouterr().out


@pytest.mark.parametrize("how", ["parabolic-map", "margin"])
def test_verify_refuses_a_chain_that_does_not_close(tmp_path, capsys, monkeypatch,
                                                    shadow_file, how):
    # The rebuilt chain's failure is a certification failure, exit 2.
    data = run_json(shadow_file)
    if how == "parabolic-map":
        data["config"]["map"] = "toral [[1,1],[0,1]]"
    else:
        monkeypatch.setattr(shadowing, "_MIN_MARGIN", 1.0)
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 2
    assert "covering" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, body",
    [("shadow", "--orbit", [1, 2]), ("verify", None, "certificate"),
     ("certify", "--config", [{"m": 3}])],
)
def test_an_input_file_that_is_not_a_json_object_exits_4(tmp_path, capsys, command, flag, body):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body))
    args = [command, str(path)] if flag is None else [command, flag, str(path)]
    assert main([*args, "--m", "3", "--out", str(tmp_path / "out")]) == 4
    assert f"{path} must be a JSON object, not {body!r}" in capsys.readouterr().err


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


def test_artifacts_do_not_depend_on_the_output_directory(tmp_path):
    # The output directory is not embedded, so its name leaves no trace.
    for name in ("a", "bbb"):
        assert main(["certify", "--map", CAT, "--m", "3", "--out", str(tmp_path / name)]) == 0
    first = (tmp_path / "a" / "certificate.json").read_bytes()
    assert (tmp_path / "bbb" / "certificate.json").read_bytes() == first
    assert "out" not in json.loads(first)["config"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    # bisection_depth and fp_tol were knobs once; they are constants now.
    for key, value in (("bogus_knob", 1), ("workers", 1), ("policy", "anchored"),
                       ("bisection_depth", 96), ("fp_tol", 1e-9)):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"map": CAT, key: value}))
        rc = main(["certify", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 4
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("m", 2.7), ("n", True), ("m", "3"), ("m", None), ("delta", "1e-4"), ("eps", False),
     ("map", 3), ("allow_uncertain", 1), ("starts", "1/7,2/7"), ("starts", [1, 2])],
)
def test_mistyped_config_values_exit_4(tmp_path, capsys, key, value):
    # Config-file values are type-checked, never coerced to their field.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["subdivide", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert f"config key {key!r}" in capsys.readouterr().err


def test_well_typed_config_values_pass(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "delta": 1, "eps": None, "allow_uncertain": True,
                               "starts": ["1/7,2/7"]}))
    assert main(["subdivide", "--config", str(cfg), "--m", "3", "--out", str(tmp_path)]) == 0
    config = run_json(tmp_path / "subdivision.json")["config"]
    assert (config["m"], config["delta"], config["starts"]) == (3, 1.0, ["1/7,2/7"])


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


def test_splice_segments_file_is_a_list_or_holds_one(tmp_path, capsys):
    # The segments file holds the list of point lists bare or as "segments";
    # its points are read as numbers, never coerced.
    segments = [[[0.1, 0.2]], [[0.6, 0.7]]]
    results = []
    for name, body in (("bare", segments), ("held", {"segments": segments})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body))
        assert main(["splice", "--map", CAT, "--m", "3", "--gap", "8", "--segments", str(path),
                     "--out", str(tmp_path / name)]) == 0
        results.append(run_json(tmp_path / name / "periodic.json")["result"])
    assert results[0] == results[1]
    segments[0][0][0] = "0.1"
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps({"segments": segments}))
    assert main(["splice", "--map", CAT, "--m", "3", "--gap", "8", "--segments", str(path),
                 "--out", str(tmp_path / "mistyped")]) == 4
    assert "segments point must be a JSON number, not '0.1'" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, artifact",
    [(["pseudo"], "orbit.csv"), (["oracle", "--seed", "3"], "oracle.csv")],
    ids=["pseudo", "oracle"],
)
def test_profile_csv_cells_are_plain_numbers(tmp_path, argv, artifact):
    # Every cell is the text of an int or a float, never a NumPy scalar's repr.
    assert main([*argv, "--map", CAT, "--m", "3", "--window", "30", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / artifact).read_text().splitlines()[1:]
    assert len(rows) == 61
    for row in rows:
        for cell in row.split(","):
            float(cell)


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


@pytest.mark.parametrize("descriptor", [CAT, PERTURBED])
def test_graph_runs_no_gap_search(tmp_path, monkeypatch, descriptor):
    # graph.json holds the build-time gaps; only delta_bound searches.
    def refused(*args):
        raise AssertionError("graph ran the minimum-gap search")

    monkeypatch.setattr(transition, "_min_gap_search", refused)
    assert main(["graph", "--map", descriptor, "--m", "3", "--out", str(tmp_path)]) == 0
    assert run_json(tmp_path / "graph.json")["graph"]["min_empty_gap"] > 0.0


def test_delta_bound_artifact(tmp_path):
    out = tmp_path / "db"
    rc = main(["delta-bound", "--map", CAT, "--m", "3", "--out", str(out)])
    assert rc == 0
    data = run_json(out / "delta_bound.json")
    assert data["delta_bound"] == pytest.approx(0.05588122929034626, abs=1e-15)


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


def test_successive_calls_share_one_parser_and_no_option_value(tmp_path, monkeypatch):
    # main parses every call with the one cached parser: an option set in
    # one call, repeated or with a default of its own, is gone in the next.
    seen, resolve = [], cli._resolve_config

    def recorded(args):
        seen.append(vars(args))
        return resolve(args)

    monkeypatch.setattr(cli, "_resolve_config", recorded)
    out = ["--out", str(tmp_path / "o")]
    assert main(["subdivide", "--m", "2", "--start", "0.1,0.2", "--start", "0.3,0.4",
                 "--allow-uncertain", "--config", str(tmp_path / "none.json"), *out]) == 4
    assert main(["oracle", "--task", "fixed-points", "--map", CAT, "--grid", "8", *out]) == 0
    assert main(["subdivide", *out]) == 0
    assert main(["oracle", "--map", CAT, "--window", "5", *out]) == 0
    assert main(["pseudo", "--no-allow-uncertain", "--window", "5", *out]) == 0
    assert main(["subdivide", "--n", "3", "--m", "1", *out]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert [a["command"] for a in seen] == [
        "subdivide", "oracle", "subdivide", "oracle", "pseudo", "subdivide"]
    first, bare = seen[0], seen[2]
    assert first["starts"] == ["0.1,0.2", "0.3,0.4"] and first["allow_uncertain"] is True
    assert {k: v for k, v in bare.items() if v is not None} == {
        "command": "subdivide", "out": str(tmp_path / "o")}
    assert (seen[1]["task"], seen[3]["task"]) == ("fixed-points", "linear")
    assert seen[4]["allow_uncertain"] is False and seen[4]["window"] == 5
    assert (seen[5]["n"], seen[5]["m"], seen[5]["window"]) == (3, 1, None)
    assert run_json(tmp_path / "o" / "subdivision.json")["subdivision"]["n"] == 3

    # A handler replaced after the parser was built is the one that runs.
    monkeypatch.setattr(cli, "cmd_subdivide", lambda run, args: 7)
    assert main(["subdivide", *out]) == 7


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


# --- every JSON input through the shared readers ------------------------------

def _leaves(node, path=()):
    """(path, value) of every scalar leaf of a JSON document."""
    if not isinstance(node, (dict, list)):
        yield path, node
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _leaves(child, (*path, key))


def _shape(path):
    # Leaves that differ only in a list index or in an edge key "i,j" are read alike.
    return tuple("*" if isinstance(k, int) or "," in k else k for k in path)


@pytest.fixture(scope="module")
def input_files(tmp_path_factory, cat_certificate, shadow_file):
    """Each kind of JSON input: its document, the command reading it from a
    path, and the leaves that command does not read, as shape prefixes."""
    tmp, shadow = tmp_path_factory.mktemp("retype"), run_json(shadow_file)
    out = ["--out", str(tmp / "out")]
    assert main(["pseudo", "--map", CAT, "--window", "10", "--out", str(tmp / "gen")]) == 0
    # Null config values are left out: null is a valid value of those fields.
    config = {k: v for k, v in cat_certificate["config"].items() if v is not None}
    config["out"] = str(tmp / "out")
    # Provenance is recorded, not read; neither is the certificate's policy name.
    unread = {("command",), ("inputs_sha256",), ("artifacts_sha256",), ("certificate", "policy")}
    return tmp, {
        # subdivide reads every key of a config file.
        "config": (config, lambda p: ["subdivide", "--config", p], set()),
        # shadow reads only the orbit of an orbit file; max_defect is recomputed.
        "orbit": (run_json(tmp / "gen" / "orbit.json"),
                  lambda p: ["shadow", "--m", "3", "--orbit", p, *out],
                  unread | {("config",), ("max_defect",)}),
        # verify rebuilds a certificate's graph with the embedded certify knobs only.
        "certificate": (cat_certificate, lambda p: ["verify", p, *out],
                        unread | {("config", k) for k in cat_certificate["config"]
                                  if k not in cli._CERTIFY_KNOBS}),
        # verify takes a shadow file's map and space, recomputes its report and
        # compares the verdict: max_err, argmax_k and errors are not read.
        "shadow": (shadow, lambda p: ["verify", p, *out],
                   unread | {("config", k) for k in shadow["config"] if k not in ("map", "space")}
                   | {("verify", k) for k in ("max_err", "argmax_k", "errors")}),
    }


@pytest.mark.parametrize("kind", ["config", "orbit", "certificate", "shadow"])
@settings(max_examples=30)
@given(data=st.data())
def test_a_retyped_leaf_exits_4(input_files, kind, data):
    # Any scalar leaf that a reader reads, given a bool, float, string or
    # null of another JSON type, is refused with exit 4 and never a traceback.
    tmp, files = input_files
    doc, command, unread = files[kind]
    leaves = [(path, value) for path, value in _leaves(doc)
              if not any(_shape(path)[:len(u)] == u for u in unread)]
    shape = data.draw(st.sampled_from(sorted({_shape(path) for path, _ in leaves})))
    path, old = data.draw(st.sampled_from([leaf for leaf in leaves if _shape(leaf[0]) == shape]))
    new = data.draw(st.sampled_from(
        [v for v in (True, 0.5, "0.5", None) if type(v) is not type(old)]
    ))
    retyped = json.loads(json.dumps(doc))
    _set_leaf(retyped, path, new)
    file = tmp / f"{kind}.json"
    file.write_text(json.dumps(retyped))
    assert main(command(str(file))) == 4


def test_verify_reads_the_edge_lists_whole(tmp_path, monkeypatch):
    # A well-typed list passes by its set of item types: the item-by-item
    # reads stay per class, so they do not grow with the 4x larger edge set.
    read, calls = geometry.json_value, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return read(*args, **kwargs)

    for module in (geometry, covering, shadowing, cli):
        monkeypatch.setattr(module, "json_value", counted)
    counts = []
    for m in (3, 4):
        out = tmp_path / f"m{m}"
        assert main(["certify", "--map", CAT, "--m", str(m), "--out", str(out)]) == 0
        calls.clear()
        assert main(["verify", str(out / "certificate.json"), "--out", str(tmp_path / "v")]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
