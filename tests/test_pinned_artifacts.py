"""Pinned artifact bits: refactors of the pipeline must not move these outputs.

Hashes cover each JSON artifact with the sha256 digest maps removed (the
output directory is not embedded, so nothing run-specific is left); shadow
runs also pin ``orbit.csv`` and the report line with the output directory
stripped.  Maps whose interval
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
    del data["inputs_sha256"]
    del data["artifacts_sha256"]
    return data


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "descriptor, m, digest",
    [
        (CAT, 3, "49758b16b41534f0be73c306cc1f4d126bb682d1db257a47af4e4ab9ce1119fa"),
        (PERTURBED, 2, "aa15034913aa803431d97c4da9249547857fac2f82e2464b83965f883dba7214"),
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
         "c566d8028ef3e37498601a24a14bd1dccc07719620d25a470f216a49add0b4eb"),
        (["graph", "--map", "standard K=0.3"], "graph.json",
         "f950871c5be74f42511740abdf69528de9af768585788d2e25e757c361a7224a"),
    ],
    ids=["cat-certificate", "standard-graph"],
)
def test_raw_artifact_bytes(tmp_path, argv, artifact, digest):
    # The output directory is not embedded, so any --out gives these bytes.
    assert main(argv + ["--m", "3", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest


def test_cat_certificate_bits(tmp_path):
    assert main(["certify", "--map", CAT, "--m", "3", "--out", str(tmp_path)]) == 0
    body = _body(tmp_path / "certificate.json")["certificate"]
    assert _sha(body) == "e05583028b602bf0d30f939ebe0f31f7423a3ead11d6a50b5a5af818bcd96fe6"


@pytest.mark.parametrize(
    "descriptor, digest",
    [
        ("identity", "50d782cddbb2edb840a89feefb601d693cbea9aff88edde3e5fc8661dc62c3cb"),
        ("translation [0.3,0.1]",
         "f7ef78d06ec9a39d1c5505e3748b7b9c2fcc4fde4aacaf02759c8b855cacd2f3"),
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
        "911b44e6d40c61a39cb8fe4c27ba1026b6d3dba69544d4eb07431901dffe5e88",
        "e3d41ca7a5e09e6336dff96a41079f3c5162aab223cd222af5ab62d176844691",
        "shadow: eps_achieved 0.000119381 <= eps 0.176777, verified max error "
        "0.000119381 at k=-18 -> /shadow.json",
    ),
    "shadow-cat-m3-seed7": (
        ["shadow", "--map", CAT, "--m", "3", "--seed", "7", "--window", "100"],
        "shadow.json",
        "18614bd6a7a4d74a6419747c1dbbbfe380233a5431e4514bf12bff3194b68fea",
        "54c6eb06aea5a3acf1592621879782545015f31b5815f58dc22f0dfc82d1d192",
        "shadow: eps_achieved 0.000122099 <= eps 0.176777, verified max error "
        "0.000122099 at k=28 -> /shadow.json",
    ),
    "periodic-cat-m3": (
        ["periodic", "--map", CAT, "--m", "3", "--period", "2", "--x0", "1/5,2/5"],
        "periodic.json",
        "59757e618133a38b2468a18d16221436b9582ff1a92a0077cee7aed34bdf0e47",
        "cfb97426d1e16c279c3af50cdda17f61efdd40c194d1731de97dbe86da8ae0d7",
        "periodic: period 2 orbit (minimal 2), eps_achieved 1.18828e-05 <= eps "
        "0.176777 -> /periodic.json",
    ),
    "splice-readme": (
        ["splice", "--map", CAT, "--m", "4", "--eps", "0.2", "--start", "1/7,2/7",
         "--start", "5/9,7/9", "--segment-length", "5", "--gap", "8"],
        "periodic.json",
        "841431457cd30a7a453b0779918a80b295842057a18b1562e0a73233eaedd7a1",
        "736c3931ef3c4dd6adf9f6b8eb5dd0aba90203d281e33773f02df32e1f9863f2",
        "splice: 2 segments + bridges -> period 17 pseudo-orbit (delta 0.156), "
        "shadowed with eps_achieved 0.107092 <= eps 0.2 -> /periodic.json",
    ),
    # The benchmark's request scale: an 801-point window and a 5-cycle on m=5.
    "shadow-cat-m5-window400": (
        ["shadow", "--map", CAT, "--m", "5", "--window", "400"],
        "shadow.json",
        "a98bbf249333c0c626b779670d04f5db1c14653f69518cfac6063d40f7609cce",
        "a94d8f1ecddfa169972a696370f26dae14ba13864b27c18c5bed686b74af49e5",
        "shadow: eps_achieved 0.000143713 <= eps 0.0441942, verified max error "
        "0.000143713 at k=351 -> /shadow.json",
    ),
    "periodic-cat-m5-period5": (
        ["periodic", "--map", CAT, "--m", "5", "--period", "5", "--x0", "1/11,3/11"],
        "periodic.json",
        "19c79b56b9aa7dedd48129fd890252aa949888ae6ad77426c9e988a1a5430f1d",
        "14b2fc19c55bf944d53f776a9334f0d3b449c83972d65db6957740eacf258390",
        "periodic: period 5 orbit (minimal 5), eps_achieved 1.18828e-05 <= eps "
        "0.0441942 -> /periodic.json",
    ),
    "shadow-perturbed-m2": (
        ["shadow", "--map", PERTURBED, "--m", "2", "--allow-uncertain"],
        "shadow.json",
        "fa52fd61c69cbd1c9c05cd7e008b0309433ff29d77ab27ba78251ea38b322f0e",
        "f6863b5f24f76a1f12f5cb6c6c6c85ed347740297fdb1cafb1f10e8030a60f6e",
        "shadow: eps_achieved 0.000438453 <= eps 0.353553, verified max error "
        "0.000438453 at k=20 -> /shadow.json",
    ),
    "periodic-perturbed-m2": (
        ["periodic", "--map", PERTURBED, "--m", "2", "--period", "1", "--x0", "0,0",
         "--allow-uncertain"],
        "periodic.json",
        "e3f326ab6ae9d79900292316a69e6f436b79c0f2c85cc982c9af8f6a753a5aee",
        "031a1cd35361036cf5b5ffa8cc5b7fde0bc5d4f34a3efb1ec1ec5c532cc52e51",
        "periodic: period 1 orbit (minimal None), eps_achieved 2.51763e-06 <= eps "
        "0.353553 -> /periodic.json",
    ),
}


@pytest.mark.parametrize("name", sorted(SHADOW_RUNS))
def test_shadow_run_bits(tmp_path, capsys, name):
    # The perturbed runs cover the interval-propagation bisection and Newton;
    # every pinned artifact then passes verify.
    argv, artifact, body_digest, csv_digest, line = SHADOW_RUNS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path), "") == line + "\n"
    assert _sha(_body(tmp_path / artifact)) == body_digest
    csv = (tmp_path / "orbit.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == csv_digest
    assert main(["verify", str(tmp_path / artifact), "--out", str(tmp_path / "v")]) == 0
