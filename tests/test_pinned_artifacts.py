"""Pinned artifact bits: the map algebra must not move these outputs.

Hashes cover each JSON artifact with the run-specific ``config.out`` and
the sha256 digest maps removed.  Maps whose interval evaluation is not
exact in floats (the shear and translations by non-dyadic vectors) pin
only the edge statuses, since their stored gaps may move in the last
digits when an enclosure gains an outward rounding.
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
        (CAT, 3, "0c6bfd54f060857020bf4c2f9986b215377a408a7a3eb365af3a2118cbaf852a"),
        (PERTURBED, 2, "9476ae61e8371063b584b1b776012da9dfac756e92da69493dcbe531faf59cd3"),
    ],
    ids=["cat-m3", "perturbed-m2"],
)
def test_graph_artifact_bits(tmp_path, descriptor, m, digest):
    assert main(["graph", "--map", descriptor, "--m", str(m), "--out", str(tmp_path)]) == 0
    assert _sha(_body(tmp_path / "graph.json")) == digest


def test_cat_certificate_bits(tmp_path):
    assert main(["certify", "--map", CAT, "--m", "3", "--out", str(tmp_path)]) == 0
    body = _body(tmp_path / "certificate.json")["certificate"]
    assert _sha(body) == "cb9f1f098a89ec93ff2d22ada639fd8f26625c29db10fafc093ccf5e152451bb"


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
