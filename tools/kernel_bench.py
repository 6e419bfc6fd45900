"""Median time per call of the batch kernels of the graph path.

    python3 tools/kernel_bench.py

Times ``eval_point`` (one point) and, at k = 1, 201 and 16 384 rows,
``eval_points``, ``eval_box``, ``transition._image_gaps``,
``transition._center_bounds`` and ``transition._cube_clearances`` of
``MAP`` on random cells of the torus, and prints one table of median
microseconds per call over ``REPEAT`` samples.  A last row times the
gap branch-and-bound, which no benchmark operation runs since ``graph``
writes its build-time gaps: ``delta_bound`` on a freshly built m=4 graph
of ``MAP`` (the graph caches its search), the median over ``REPEAT``
graphs, without their builds.  A second table times ``build_graph`` of
each of ``BUILDS`` whole and its row phase alone (the build at
``refine_depth=0``, which settles no pair by refinement), and prints next
to the times the pairs the rows bound, those in the rows' near-band
windows, against all pairs of the computed rows.  A third table times
the artifact encoders and ``json.loads`` of their text: the ``graph``
section of graph.json (``TransitionGraph.to_json``) for each of
``ARTIFACT_GRAPHS``, and the ``json.dumps`` that ``Run.write_json`` runs on
the certificate section of the ``CERTIFICATE`` map's certificate.json,
with the text's bytes and its floats, all and distinct by bit pattern,
next to the times.  It times the package of
the checkout it sits in; to compare two checkouts, run each one's copy
in alternating runs, since the machine's speed drifts between runs made
apart.  The inputs come from a fixed seed, so both time the same calls.
The private kernels are called coordinate-major, with (n, k) arrays, so
the script cannot time a checkout whose kernels take (k, n) rows.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cubeshadow import covering, dynamics, geometry, transition  # noqa: E402

MAP = "standard K=0.3"
ROWS = (1, 201, 16384)
REPEAT = 7
SEARCH_M = 4
BUILDS = (
    ("standard K=0.3", 4),
    ("standard K=0.3", 5),
    ("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 3),
)
ARTIFACT_GRAPHS = (("standard K=0.3", 4), ("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 3))
CERTIFICATE = ("toral [[2,1],[1,1]]", 6)


def _median_us(call) -> float:
    """Median over ``REPEAT`` samples of the time per call, each sample
    long enough (at least 20 ms) that the clock's resolution does not show."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        if time.perf_counter() - start >= 0.02:
            break
        number *= 2
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) * 1e6


def _cases(f, k: int):
    """(name, call) of every batch kernel on k random cells and targets,
    held coordinate-major as (n, k) arrays."""
    rng = np.random.default_rng(k)
    n = f.n
    width = np.ldexp(1.0, -rng.integers(4, 12, size=k))
    lo = np.floor(rng.random((n, k)) / width) * width
    hi = lo + width
    t_lo = np.floor(rng.random((n, k)) * 16.0) / 16.0
    t_hi = t_lo + 1.0 / 16.0
    pts = lo + 0.5 * (hi - lo)
    forward = dynamics.Direction.FORWARD
    return [
        ("eval_points", lambda: dynamics.eval_points(f, pts.T)),
        ("eval_box", lambda: dynamics.eval_box(f, forward, lo.T, hi.T)),
        ("_image_gaps", lambda: transition._image_gaps(f, lo, hi, t_lo, t_hi)),
        ("_center_bounds", lambda: transition._center_bounds(f, lo, hi, t_lo, t_hi)),
        ("_cube_clearances", lambda: transition._cube_clearances(pts, t_lo, t_hi, f.space)),
    ]


def _delta_bound_us(f) -> float:
    """Median over ``REPEAT`` fresh m = ``SEARCH_M`` graphs of one
    ``delta_bound`` call, the graph's one minimum-gap search."""
    s = geometry.make_subdivision(f.n, SEARCH_M, geometry.Space.TORUS)
    samples = []
    for _ in range(REPEAT):
        g = transition.build_graph(f, s)
        start = time.perf_counter()
        transition.delta_bound(g, allow_uncertain=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _pair_counts(f, s) -> tuple[int, int]:
    """The windowed pairs of the computed rows of ``build_graph`` and all
    their pairs."""
    lo, hi = transition._cube_bounds(s)
    rows = 1 if transition.equivariant_index_matrix(f, s) is not None else s.count
    e_lo, e_hi = dynamics.eval_box(f, dynamics.Direction.FORWARD, lo[:, :rows].T, hi[:, :rows].T)
    _, size = transition._row_windows(e_lo.T, e_hi.T, s)
    return int(size.prod(axis=0).sum()), rows * s.count


def _builds() -> None:
    print(f"{'build_graph, median us':<48}{'rows':>10}{'whole':>10}{'windowed':>10}{'all':>10}")
    for descriptor, m in BUILDS:
        f = dynamics.builtin_map(descriptor)
        s = geometry.make_subdivision(f.n, m, geometry.Space.TORUS)
        rows = _median_us(lambda: transition.build_graph(f, s, refine_depth=0))
        whole = _median_us(lambda: transition.build_graph(f, s))
        windowed, every = _pair_counts(f, s)
        print(f"{descriptor + f' m={m}':<48}{rows:10.0f}{whole:10.0f}{windowed:10d}{every:10d}")


def _floats(doc):
    """Every float of a decoded JSON document."""
    if isinstance(doc, float):
        yield doc
    elif isinstance(doc, (dict, list)):
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _floats(value)


def _artifact_row(label: str, encode) -> None:
    text = encode()
    floats = np.array(list(_floats(json.loads(text))), dtype=float)
    distinct = len(np.unique(floats.view(np.int64)))
    times = f"{_median_us(encode):10.0f}{_median_us(lambda: json.loads(text)):10.0f}"
    print(f"{label:<56}{times}{len(text):10d}{floats.size:10d}{distinct:10d}")


def _artifacts() -> None:
    print(f"{'artifact, median us':<56}{'encode':>10}{'decode':>10}{'bytes':>10}"
          f"{'floats':>10}{'distinct':>10}")
    for descriptor, m in ARTIFACT_GRAPHS:
        f = dynamics.builtin_map(descriptor)
        g = transition.build_graph(f, geometry.make_subdivision(f.n, m, geometry.Space.TORUS))
        _artifact_row(f"graph.json {descriptor} m={m}", g.to_json)
    descriptor, m = CERTIFICATE
    f = dynamics.builtin_map(descriptor)
    s = geometry.make_subdivision(f.n, m, geometry.Space.TORUS)
    body = covering.certify_chained(f, s, transition.build_graph(f, s)).to_json()
    _artifact_row(
        f"certificate.json {descriptor} m={m}",
        lambda: json.dumps(body, sort_keys=True, check_circular=False),
    )


def main() -> int:
    f = dynamics.builtin_map(MAP)
    point = np.array([0.3, 0.7][: f.n] + [0.5] * max(f.n - 2, 0))
    rows = {"eval_point": {1: _median_us(
        lambda: dynamics.eval_point(f, dynamics.Direction.FORWARD, point)
    )}}
    for k in ROWS:
        for name, call in _cases(f, k):
            rows.setdefault(name, {})[k] = _median_us(call)
    print(f"median us per call, {f.descriptor}")
    print(f"{'kernel':<18}" + "".join(f"{'k=' + str(k):>12}" for k in ROWS))
    for name, times in rows.items():
        cells = "".join(f"{times[k]:12.1f}" if k in times else f"{'-':>12}" for k in ROWS)
        print(f"{name:<18}{cells}")
    print(f"{'delta_bound':<18}{_delta_bound_us(f):12.1f}  (one search, fresh m={SEARCH_M} graph)")
    print()
    _builds()
    print()
    _artifacts()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
