"""Pinned artifact bits: refactors of the pipeline must not move these outputs.

Hashes cover each JSON artifact with the run-specific ``config.out`` and
the sha256 digest maps removed; shadow runs also pin ``orbit.csv`` and
the report line with the output directory stripped.  Maps whose interval
evaluation is not exact in floats (the shear and translations by
non-dyadic vectors) pin only the edge statuses, since their stored gaps
may move in the last digits when an enclosure gains an outward rounding.
Two runs also pin the raw file bytes, formatting included; the standard
map's pin moves with any change to its sine enclosure.
"""

import hashlib
import json

import pytest

from cubeshadow.cli import main

CAT = "toral [[2,1],[1,1]]"
PERTURBED = "perturbed [[2,1],[1,1]] eta=0.001 freq=1"


def _body(path) -> dict:
    data = json.loads(path.read_text())
    del data["config"]["out"]
    del data["inputs_sha256"]
    del data["artifacts_sha256"]
    return data


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "descriptor, m, digest",
    [
        (CAT, 3, "9ce67c3306f771056ea26c1748d49ecf56c73b3622afb46a0204cdd5934ca3a7"),
        (PERTURBED, 2, "c700f3b73db0c898a500b8d212fb924d153b4a71f9f937363e02588c2a6d981e"),
    ],
    ids=["cat-m3", "perturbed-m2"],
)
def test_graph_artifact_bits(tmp_path, descriptor, m, digest):
    assert main(["graph", "--map", descriptor, "--m", str(m), "--out", str(tmp_path)]) == 0
    assert _sha(_body(tmp_path / "graph.json")) == digest


@pytest.mark.parametrize(
    "argv, artifact, digest",
    [
        (["certify", "--map", CAT], "certificate.json",
         "7128144b285888623f73289bcb94c195d1f6c94225ac365e2da78c72e838a453"),
        (["graph", "--map", "standard K=0.3"], "graph.json",
         "1171a069cefdc0a0c865cd009d1128ae9cdeaad3673f04dff4ba831babd99372"),
    ],
    ids=["cat-certificate", "standard-graph"],
)
def test_raw_artifact_bytes(tmp_path, monkeypatch, argv, artifact, digest):
    # A relative --out keeps the embedded config the same in every checkout.
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--m", "3", "--out", "out"]) == 0
    assert hashlib.sha256((tmp_path / "out" / artifact).read_bytes()).hexdigest() == digest


def test_cat_certificate_bits(tmp_path):
    assert main(["certify", "--map", CAT, "--m", "3", "--out", str(tmp_path)]) == 0
    body = _body(tmp_path / "certificate.json")["certificate"]
    assert _sha(body) == "e05583028b602bf0d30f939ebe0f31f7423a3ead11d6a50b5a5af818bcd96fe6"


@pytest.mark.parametrize(
    "descriptor, digest",
    [
        ("identity", "7235f36456048c25ffa4d8394f8dd382ee78d4b5a0b813e3c164cd963f1fa911"),
        ("translation [0.3,0.1]",
         "d7eb5efa063bf1a2bc5c4ad6217cff252317e1d247f1832628cbbeb33ca360bc"),
    ],
    ids=["identity", "translation"],
)
def test_failure_report_bits(tmp_path, descriptor, digest):
    # Classes that fail fall back to one strip search per edge, so every
    # edge keeps its own reason, down to the last printed digit.
    assert main(["certify", "--map", descriptor, "--m", "3", "--out", str(tmp_path)]) == 2
    assert _sha(_body(tmp_path / "failure.json")) == digest


@pytest.mark.parametrize(
    "descriptor, digest",
    [
        ("standard K=0.3", "34cb49363b8f11aae6a7172d7a420b4d1243ab1cfaaeff2b6591e77721a3b926"),
        ("translation [0.3,0.1]", "4c642ffc1a1eebc2186e5f769c867caee4b16920936ef5e2a6a06ac3a494832f"),
    ],
    ids=["standard", "translation"],
)
def test_graph_edge_statuses(tmp_path, descriptor, digest):
    assert main(["graph", "--map", descriptor, "--m", "3", "--out", str(tmp_path)]) == 0
    edges = _body(tmp_path / "graph.json")["graph"]["edges"]
    assert _sha([[i, j, status] for i, j, status, _ in edges]) == digest


SHADOW_RUNS = {
    "shadow-cat-m3-seed0": (
        ["shadow", "--map", CAT, "--m", "3", "--seed", "0", "--window", "100"],
        "shadow.json",
        "24afca7c10345f0221a6de946b65c98bd0923709a268f52abfa93fdf7a7e441c",
        "e3d41ca7a5e09e6336dff96a41079f3c5162aab223cd222af5ab62d176844691",
        "shadow: eps_achieved 0.000119381 <= eps 0.176777, verified max error "
        "0.000119381 at k=-18 -> /shadow.json",
    ),
    "shadow-cat-m3-seed7": (
        ["shadow", "--map", CAT, "--m", "3", "--seed", "7", "--window", "100"],
        "shadow.json",
        "3c07f8bbbf25ac386d09cb920395f3aca88a26186c3d3fdbbedeeb99d1157518",
        "54c6eb06aea5a3acf1592621879782545015f31b5815f58dc22f0dfc82d1d192",
        "shadow: eps_achieved 0.000122099 <= eps 0.176777, verified max error "
        "0.000122099 at k=28 -> /shadow.json",
    ),
    "periodic-cat-m3": (
        ["periodic", "--map", CAT, "--m", "3", "--period", "2", "--x0", "1/5,2/5"],
        "periodic.json",
        "24c5a55feff2470354d4fda1b43bbae0665efc0153ea5a033fe5c585b485b12f",
        "cfb97426d1e16c279c3af50cdda17f61efdd40c194d1731de97dbe86da8ae0d7",
        "periodic: period 2 orbit (minimal 2), eps_achieved 1.18828e-05 <= eps "
        "0.176777 -> /periodic.json",
    ),
    "splice-readme": (
        ["splice", "--map", CAT, "--m", "4", "--eps", "0.2", "--start", "1/7,2/7",
         "--start", "5/9,7/9", "--segment-length", "5", "--gap", "8"],
        "periodic.json",
        "d8599ef82bcfc2041f2090896a42dd5e11628addffcac9b7fd7e64641dc2d1b9",
        "736c3931ef3c4dd6adf9f6b8eb5dd0aba90203d281e33773f02df32e1f9863f2",
        "splice: 2 segments + bridges -> period 17 pseudo-orbit (delta 0.156), "
        "shadowed with eps_achieved 0.107092 <= eps 0.2 -> /periodic.json",
    ),
    # The benchmark's request scale: an 801-point window and a 5-cycle on m=5.
    "shadow-cat-m5-window400": (
        ["shadow", "--map", CAT, "--m", "5", "--window", "400"],
        "shadow.json",
        "5b804b9aa405884285a9f804808bc886163bc73eb7f9c1cb2847054222ceee53",
        "a94d8f1ecddfa169972a696370f26dae14ba13864b27c18c5bed686b74af49e5",
        "shadow: eps_achieved 0.000143713 <= eps 0.0441942, verified max error "
        "0.000143713 at k=351 -> /shadow.json",
    ),
    "periodic-cat-m5-period5": (
        ["periodic", "--map", CAT, "--m", "5", "--period", "5", "--x0", "1/11,3/11"],
        "periodic.json",
        "04191df3e017f4229e31ce96b1c94585391f9b1fa0da883ae22dcd09af5ce8cb",
        "14b2fc19c55bf944d53f776a9334f0d3b449c83972d65db6957740eacf258390",
        "periodic: period 5 orbit (minimal 5), eps_achieved 1.18828e-05 <= eps "
        "0.0441942 -> /periodic.json",
    ),
    "shadow-perturbed-m2": (
        ["shadow", "--map", PERTURBED, "--m", "2", "--allow-uncertain"],
        "shadow.json",
        "ab992b13a907890d358728ab2ff2185d979159568ccac2d5f52fdbff14aeecf4",
        "f6863b5f24f76a1f12f5cb6c6c6c85ed347740297fdb1cafb1f10e8030a60f6e",
        "shadow: eps_achieved 0.000438453 <= eps 0.353553, verified max error "
        "0.000438453 at k=20 -> /shadow.json",
    ),
    "periodic-perturbed-m2": (
        ["periodic", "--map", PERTURBED, "--m", "2", "--period", "1", "--x0", "0,0",
         "--allow-uncertain"],
        "periodic.json",
        "c80accd0c3978ff77bca9ac2b76e78a67183eb1d251bb12e10935755460154d7",
        "031a1cd35361036cf5b5ffa8cc5b7fde0bc5d4f34a3efb1ec1ec5c532cc52e51",
        "periodic: period 1 orbit (minimal None), eps_achieved 2.51763e-06 <= eps "
        "0.353553 -> /periodic.json",
    ),
}


@pytest.mark.parametrize("name", sorted(SHADOW_RUNS))
def test_shadow_run_bits(tmp_path, capsys, name):
    # The perturbed runs cover the interval-propagation bisection and Newton.
    argv, artifact, body_digest, csv_digest, line = SHADOW_RUNS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path), "") == line + "\n"
    assert _sha(_body(tmp_path / artifact)) == body_digest
    csv = (tmp_path / "orbit.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == csv_digest
