import gc
import json
import math
import weakref

import numpy as np
import pytest

from cubeshadow.dynamics import Direction, builtin_map, eval_point, eval_points
from cubeshadow.errors import NoPathError, NotEndomorphismError, UncertainEdgesError
from cubeshadow.geometry import (
    Space,
    chi,
    make_subdivision,
)
from cubeshadow import transition
import scalar_reference as ref
from scalar_reference import cube_of_point, cubes_containing_point, point_box_distance_lb
from cubeshadow.cli import main
from cubeshadow.covering import certify_chained
from cubeshadow.shadowing import UniformNoise, generate_pseudo_orbit, shadow
from cubeshadow.transition import (
    EdgeStatus,
    EdgeWitness,
    build_graph,
    delta_bound,
    find_path,
)

CAT = builtin_map("toral [[2,1],[1,1]]")


def cat_graph(m, **kw):
    return build_graph(CAT, make_subdivision(2, m, Space.TORUS), **kw)


# --- edge counts ------------------------------------------------------------

def test_identity_m1_all_pairs_nonempty():
    # At m=1 on the torus every pair of the 4 cubes shares boundary, and the
    # identity fixes each cube, so all 16 ordered pairs are CertifiedNonempty.
    f = builtin_map("identity")
    g = build_graph(f, make_subdivision(2, 1, Space.TORUS))
    assert g.nonempty_count == 16
    assert g.uncertain_count == 0


@pytest.mark.parametrize("m,total", [(2, 192), (3, 768), (4, 3072)])
def test_cat_edge_counts(m, total):
    # The image of a cube is a parallelogram crossing exactly 12 cubes:
    # 4 with interior overlap and 8 touched only at corner points.
    g = cat_graph(m)
    assert g.nonempty_count == total
    assert g.uncertain_count == 0
    per_row = {}
    for (i, _j) in g.witnesses:
        per_row[i] = per_row.get(i, 0) + 1
    assert set(per_row.values()) == {12}


def test_cat_interior_witnesses_per_row():
    g = cat_graph(3)
    interior = {}
    for (i, _j), w in g.witnesses.items():
        interior[i] = interior.get(i, 0) + (1 if w.interior else 0)
    assert set(interior.values()) == {4}


# --- witness validity -------------------------------------------------------

def test_witnesses_check_out():
    g = cat_graph(3)
    s = g.subdivision
    for (i, j), w in g.witnesses.items():
        assert i in cubes_containing_point(s, w.point)
        assert j in cubes_containing_point(s, w.image)
        recomputed = eval_point(CAT, Direction.FORWARD, w.point)
        assert np.allclose(recomputed, w.image, atol=1e-12)
        assert w.clearance >= 0.0


def test_interior_witness_clearance_positive_both_sides():
    g = cat_graph(2)
    s = g.subdivision
    for (i, j), w in g.witnesses.items():
        if not w.interior:
            continue
        assert cube_of_point(s, w.point) == i
        assert cube_of_point(s, w.image) == j
        assert len(cubes_containing_point(s, w.point)) == 1
        assert len(cubes_containing_point(s, w.image)) == 1


@pytest.mark.parametrize(
    "descriptor", ["toral [[2,1],[1,1]]", "identity", "translation [0.3,0.1]"]
)
def test_derived_rows_equal_computed_rows(monkeypatch, descriptor):
    # The equivariant kinds compute row 0 and translate it into every other
    # row; computing every row directly must give the same graph.
    f = builtin_map(descriptor)
    s = make_subdivision(2, 3, Space.TORUS)
    derived = build_graph(f, s)
    monkeypatch.setattr(transition, "equivariant_index_matrix", lambda f, s: None)
    direct = build_graph(f, s)
    assert derived.witnesses and derived.witnesses.keys() == direct.witnesses.keys()
    assert derived.uncertain == direct.uncertain
    for pair, w in derived.witnesses.items():
        assert w.interior == direct.witnesses[pair].interior, pair
    assert abs(derived.min_empty_gap - direct.min_empty_gap) <= 2.0 ** -12 * s.cube_width


def _bits(mapping) -> tuple[list, list]:
    """A pair -> float (or EdgeWitness) mapping as its sorted keys and the
    bit patterns of their values, so that equal means equal in every bit."""
    keys = sorted(mapping)
    rows = [mapping[k] for k in keys]
    if rows and isinstance(rows[0], EdgeWitness):
        rows = [(*w.point, *w.image, w.clearance) for w in rows]
    return keys, np.array(rows, dtype=float).view(np.int64).tolist()


_TORAL = ["toral [[2,1],[1,1]]", "identity", "translation [0.3,0.1]",
          "toral [[1,1],[1,2]]", "toral [[3,1],[2,1]]", "toral [[2,3],[1,2]]"]


@pytest.mark.parametrize(
    "descriptor, m",
    [(d, m) for d in _TORAL for m in (2, 3, 4, 5)]
    + [("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 2), ("standard K=0.3", 4),
       ("affine [[0.5,0.1],[0.05,0.45]] offset=[0.2,0.3]", 4),
       ("affine [[0.3,0.1,0.2],[0.1,0.2,0.3],[0.1,0.3,0.1]]", 2)],
)
def test_columnar_graph_matches_the_materialised_dicts(descriptor, m):
    # The reference writes every translated row out pair by pair, settles
    # computed rows one at a time against every target (the build settles
    # blocks of rows against their windows), with its own three-shift
    # clearances and witness rule; the columns must read back the same
    # dicts, sets, adjacency and JSON, bit for bit.  The affine maps run on
    # the cube.
    space = Space.CUBE if descriptor.startswith("affine") else Space.TORUS
    f = builtin_map(descriptor, space)
    _assert_matches_materialised(f, make_subdivision(f.n, m, space))


def _blocks_match_materialised(monkeypatch, gathered) -> list[int]:
    """The rows of each row block of the standard map at m=3 under a
    budget of ``gathered`` (pair, sample) rows, the graph checked against
    the materialised dicts."""
    blocks = []
    window_gaps = transition._window_gaps

    def spy(e_lo, *rest):
        blocks.append(e_lo.shape[1])
        return window_gaps(e_lo, *rest)

    monkeypatch.setattr(transition, "_GATHERED", gathered)
    monkeypatch.setattr(transition, "_window_gaps", spy)
    _assert_matches_materialised(builtin_map("standard K=0.3"), make_subdivision(2, 3, Space.TORUS))
    return blocks


def test_a_ragged_last_row_block_matches_the_materialised_dicts(monkeypatch):
    # At m=3 every window of the standard map is whole, 64 pairs of 25
    # samples each: a budget of 3 rows' leaves a last block of one row.
    assert _blocks_match_materialised(monkeypatch, 3 * 64 * 25) == [3] * 21 + [1]


def test_a_row_block_takes_a_row_past_the_budget(monkeypatch):
    # A budget below one row's (pair, sample) rows still settles a row a block.
    assert _blocks_match_materialised(monkeypatch, 1) == [1] * 64


def _assert_matches_materialised(f, s):
    g = build_graph(f, s)
    witnesses, uncertain, gaps, min_gap = ref.materialised_graph(f, s)
    assert _bits(g.witnesses) == _bits(witnesses)
    assert set(g.uncertain) == uncertain and len(g.uncertain) == len(uncertain)
    assert _bits(g.empty_gaps) == _bits(gaps)
    succ: dict[int, list[int]] = {}
    for a, j in sorted(witnesses):
        succ.setdefault(a, []).append(j)
    assert all(g.successors(i) == tuple(succ.get(i, ())) for i in range(s.count))
    empty = np.ones(s.count ** 2, dtype=bool)
    empty[[i * s.count + j for i, j in (*witnesses, *uncertain)]] = False
    i, j = np.divmod(np.arange(s.count ** 2), s.count)
    assert np.array_equal(g.certified_empty(i, j), empty)
    assert g.min_empty_gap.hex() == min_gap.hex()
    assert json.dumps(g.to_json()) == json.dumps(
        ref.graph_json(g, witnesses, uncertain, gaps, min_gap)
    )


def test_certified_empty_outside_the_live_code_range():
    # Pairs whose codes sort before the first and after the last live code
    # must read as empty: the binary search clamps past-the-end indices.
    s = make_subdivision(2, 3, Space.TORUS)
    g = build_graph(builtin_map("translation [0.3,0.1]"), s)
    live = np.union1d(g.witness_codes, g.uncertain_codes)
    codes = np.arange(s.count ** 2)
    assert 0 < live[0] and live[-1] < codes[-1]
    i, j = np.divmod(codes, s.count)
    empty = g.certified_empty(i, j)
    assert np.array_equal(empty, ~np.isin(codes, live))
    assert empty[: live[0]].all() and empty[live[-1] + 1:].all()
    assert not empty[[live[0], live[-1]]].any()


@pytest.mark.parametrize("i, j, bad", [(-1, 5, -1), (0, 16, 16), (99, 0, 99), (3, -7, -7)])
def test_a_pair_with_a_cube_out_of_range_is_refused(i, j, bad):
    # 16 cubes at m=2: a pair naming any other index does not exist, so it
    # has no status, and neither lookup may call it certified empty.
    g = cat_graph(2)
    with pytest.raises(ValueError, match=rf"cube index {bad} out of range"):
        g.status(i, j)
    for pairs in (([i], [j]), (np.array([0, i]), np.array([1, j]))):
        with pytest.raises(ValueError, match=rf"cube index {bad} out of range"):
            g.certified_empty(*pairs)
    row = [g.status(0, j) is EdgeStatus.EMPTY for j in range(16)]
    assert g.certified_empty([0] * 16, list(range(16))).tolist() == row and any(row)


def test_a_derived_witness_pushed_out_of_its_cube_is_demoted(monkeypatch):
    # Derived witnesses get their images recomputed; one that lands outside
    # its target cube must become Uncertain, never a stored witness.
    s = make_subdivision(2, 2, Space.TORUS)
    g = cat_graph(2)
    pair, w = next((p, w) for p, w in g.witnesses.items() if p[0] == 1 and w.interior)
    real = transition.eval_points

    def pushed(f, pts):
        out = real(f, pts)
        out[np.all(pts == w.point, axis=-1)] = (np.array(w.image) + 0.5) % 1.0
        return out

    monkeypatch.setattr(transition, "eval_points", pushed)
    demoted = build_graph(CAT, s)
    moved = {p for p, v in g.witnesses.items() if v.point == w.point}
    assert pair in moved and all(p[0] == 1 for p in moved)
    assert set(demoted.uncertain) == moved
    assert set(demoted.witnesses) == set(g.witnesses) - moved
    assert demoted.status(*pair) is EdgeStatus.UNCERTAIN


def test_only_delta_bound_sharpens_the_gap(monkeypatch, tmp_path, capsys):
    # ``calls`` holds the m of each minimum-gap search, ``translated`` of
    # each code translation: a cat build translates its witness and its
    # uncertain codes, and the first count or listing of the near-miss
    # pairs translates the gap codes.
    calls, translated = [], []
    real, translates = transition._min_gap_search, transition._translates

    def counted(f, s, *args):
        calls.append(s.m)
        return real(f, s, *args)

    def translating(s, index_matrix, targets):
        translated.append(s.m)
        return translates(s, index_matrix, targets)

    monkeypatch.setattr(transition, "_min_gap_search", counted)
    monkeypatch.setattr(transition, "_translates", translating)
    cat = ["--map", "toral [[2,1],[1,1]]", "--m", "4"]
    out = tmp_path / "c"
    assert main(["certify", *cat, "--out", str(out)]) == 0
    assert main(["verify", str(out / "certificate.json"), "--out", str(tmp_path / "v")]) == 0
    assert calls == [] and translated == [4] * 4
    # graph.json lists the build-time gaps: the gap codes and no search;
    # delta_bound searches and derives no codes.
    assert main(["graph", *cat, "--out", str(tmp_path / "graph")]) == 0
    assert calls == [] and translated == [4] * 7
    assert main(["delta-bound", *cat, "--out", str(tmp_path / "delta-bound")]) == 0
    assert calls == [4] and translated == [4] * 9

    # The first shadow request runs the search; the second request reuses
    # it, and a later gap read derives only the codes.
    g = cat_graph(3)
    cert = certify_chained(CAT, g.subdivision, g)
    assert calls == [4] and translated == [4] * 9 + [3] * 2
    for seed in (0, 1):
        p = generate_pseudo_orbit(CAT, (0.2, 0.3), 1e-4, 20, UniformNoise(seed))
        shadow(CAT, p, cert, chi(g.subdivision), g=g)
        assert calls == [4, 3] and translated == [4] * 9 + [3] * 2
    assert len(g.empty_gaps) > 0 and g.empty_gaps[next(iter(g.empty_gaps))] > 0.0
    assert calls == [4, 3] and translated == [4] * 9 + [3] * 3

    # Gaps, the minimum, the JSON and equality read the stored gaps and
    # search nothing; only the sharpened minimum searches, once.
    other = cat_graph(3)
    assert len(other.empty_gaps) > 0 and other.empty_gaps[next(iter(other.empty_gaps))] > 0.0
    assert other.to_json() == g.to_json() and other == g
    assert other.min_empty_gap == min(other.empty_gaps.values())
    assert calls == [4, 3] and translated == [4] * 9 + [3] * 6
    assert other.sharpened_min_gap == delta_bound(other) == delta_bound(g)
    assert calls == [4, 3, 3] and translated == [4] * 9 + [3] * 6


def test_a_read_graph_is_freed_without_the_cycle_collector():
    # The views built on lookup must not tie the graph into a reference
    # cycle, or every dropped graph waits for the collector.
    gc.disable()
    try:
        g = cat_graph(2)
        g.to_json(), g.to_dot(), g.successors(0), len(g.empty_gaps), set(g.uncertain)
        cert = certify_chained(CAT, g.subdivision, g)
        cert.to_json(), len(cert.certificates), cert.edge_class[(0, 0)]
        refs = weakref.ref(g), weakref.ref(cert)
        del g, cert
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


# --- brute-force agreement --------------------------------------------------

def test_cat_m3_sampled_transitions_never_certified_empty():
    g = cat_graph(3)
    s = g.subdivision
    rng = np.random.default_rng(7)
    pts = rng.random((50_000, 2))
    imgs = eval_points(CAT, pts)
    seen = set()
    for p, q in zip(pts, imgs):
        seen.add((cube_of_point(s, p), cube_of_point(s, q)))
    assert len(seen) >= 200
    for (i, j) in seen:
        assert g.status(i, j) is not EdgeStatus.EMPTY


# --- delta_bound ------------------------------------------------------------

def test_identity_m1_delta_bound_is_diameter():
    # No empty pair exists, so every defect is absorbed; the bound degrades
    # to the diameter of the torus.
    f = builtin_map("identity")
    g = build_graph(f, make_subdivision(2, 1, Space.TORUS))
    assert delta_bound(g) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)


def test_identity_m2_delta_bound_quarter():
    # Nearest empty pair sits one full cube away on one axis.
    f = builtin_map("identity")
    g = build_graph(f, make_subdivision(2, 2, Space.TORUS))
    db = delta_bound(g)
    assert db <= 0.25
    assert 0.25 - db < 1e-9


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cat_delta_bound_matches_closed_form(m):
    # The nearest miss of the image parallelogram is at distance
    # cube_width / sqrt(5); the toolkit bound must sit just below it.
    g = cat_graph(m)
    db = delta_bound(g)
    true = g.subdivision.cube_width / math.sqrt(5)
    assert db <= true + 1e-12
    assert true - db < 2e-4 * g.subdivision.cube_width / 0.25


def test_delta_bound_never_exceeds_sampled_minimum():
    g = cat_graph(2)
    s = g.subdivision
    db = delta_bound(g)
    rng = np.random.default_rng(3)
    for (i, j), _gap in g.empty_gaps.items():
        box = s.box(i)
        pts = box.lo_arr + rng.random((500, 2)) * (box.hi_arr - box.lo_arr)
        imgs = eval_points(CAT, pts)
        tgt = s.box(j)
        observed = min(point_box_distance_lb(p, tgt) for p in imgs)
        assert db <= observed + 1e-12


_BUILT_GAPS = {
    "cat-m3": ("toral [[2,1],[1,1]]", 3, None),
    "standard-m4": ("standard K=0.3", 4, "0x1.c79bc37e57223p-7"),
    "perturbed-m3": ("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 3, "0x1.72b12a89adffep-11"),
}


@pytest.mark.parametrize("name", sorted(_BUILT_GAPS))
def test_graph_json_holds_the_build_time_gaps(name):
    # graph.json's minimum is the least stored gap, which the search can
    # only sharpen; delta_bound keeps the sharpened bits (0.013904066520518182
    # and 0.0007070389849195278 for the nonlinear maps).
    descriptor, m, want = _BUILT_GAPS[name]
    g = build_graph(builtin_map(descriptor), make_subdivision(2, m, Space.TORUS))
    doc = g.to_json()
    assert doc["min_empty_gap"] == min(doc["near_empty_gaps"].values()) == g.min_empty_gap
    bound = delta_bound(g, allow_uncertain=True)
    assert doc["min_empty_gap"] <= bound
    if want is not None:
        assert bound.hex() == want


def test_delta_bound_uncertain_strictness():
    # Without refinement the 8 near-miss pairs per row stay Uncertain: their
    # bounding-box enclosures overlap the target even though the true image
    # parallelogram misses it.
    g = cat_graph(2, refine_depth=0)
    assert g.uncertain_count > 0
    with pytest.raises(UncertainEdgesError):
        delta_bound(g)
    assert delta_bound(g, allow_uncertain=True) > 0.0


# --- endomorphism gate ------------------------------------------------------

def test_translation_on_cube_rejected():
    f = builtin_map("translation [0.3,0.7]", space=Space.CUBE)
    with pytest.raises(NotEndomorphismError):
        build_graph(f, make_subdivision(2, 2, Space.CUBE))


def test_contraction_on_cube_accepted():
    f = builtin_map("affine [[0.5,0],[0,0.5]]", space=Space.CUBE)
    g = build_graph(f, make_subdivision(2, 2, Space.CUBE))
    assert g.nonempty_count > 0


# --- paths ------------------------------------------------------------------

def test_find_path_trivial_and_direct():
    g = cat_graph(2)
    assert find_path(g, 5, 5) == [5]
    first = next(j for j in g.successors(0) if j != 0)
    assert find_path(g, 0, first) == [0, first]


def test_find_path_and_verify_edges():
    g = cat_graph(3)
    path = find_path(g, 0, 37)
    assert path[0] == 0 and path[-1] == 37
    for a, b in zip(path, path[1:]):
        assert g.status(a, b) is EdgeStatus.NONEMPTY


def test_find_path_respects_max_len():
    g = cat_graph(2)
    non_neighbors = [j for j in range(16) if j != 0 and j not in g.successors(0)]
    assert non_neighbors  # 12 of 16 are direct successors
    with pytest.raises(NoPathError):
        find_path(g, 0, non_neighbors[0], max_len=1)


@pytest.mark.parametrize(
    "descriptor, m",
    [("toral [[2,1],[1,1]]", 4), ("perturbed [[2,1],[1,1]] eta=0.001 freq=1", 2)],
    ids=["cat-m4", "perturbed-m2"],
)
def test_successors_are_the_witnessed_targets_ascending(descriptor, m):
    g = build_graph(builtin_map(descriptor), make_subdivision(2, m, Space.TORUS))
    for i in range(g.subdivision.count):
        assert g.successors(i) == tuple(sorted(j for (a, j) in g.witnesses if a == i))


def test_find_path_bad_index():
    g = cat_graph(2)
    with pytest.raises(ValueError):
        find_path(g, 0, 16)


# --- determinism and export -------------------------------------------------

def test_build_is_deterministic():
    a = cat_graph(2)
    b = cat_graph(2)
    assert a == b
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


def test_json_export_shape():
    g = cat_graph(2)
    doc = g.to_json()
    assert doc["m"] == 2 and doc["n"] == 2
    assert doc["empty_pairs"] == "implicit"
    assert len(doc["edges"]) == g.nonempty_count + g.uncertain_count
    gaps = doc["near_empty_gaps"].values()
    assert doc["min_empty_gap"] == min(gaps) <= delta_bound(g)
    json.dumps(doc)  # must be serializable as-is


def test_dot_export_mentions_edges():
    g = build_graph(builtin_map("identity"), make_subdivision(2, 1, Space.TORUS))
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert "0 -> 0;" in dot
