from __future__ import annotations

import math

import numpy as np
import pytest

from cubeshadow.dynamics import (
    Direction,
    affine_map,
    builtin_map,
    eval_box,
    eval_point,
    eval_points,
    identity_map,
    jacobian,
    map_parts,
    perturbed_map,
    residual_range,
    standard_map,
    toral_map,
    translation_map,
)
from cubeshadow.errors import InvalidMapError, NotInvertibleError
from cubeshadow.geometry import Box, Space
from scalar_reference import split_lift

CAT = ((2, 1), (1, 1))


def test_cat_map_point():
    f = toral_map(CAT)
    q = eval_point(f, Direction.FORWARD, (0.5, 0.5))
    assert q == pytest.approx([0.5, 0.0], abs=0)


def test_cat_map_inverse_point():
    f = toral_map(CAT)
    q = eval_point(f, Direction.INVERSE, (0.5, 0.0))
    assert q == pytest.approx([0.5, 0.5], abs=0)
    assert f.inverse_matrix == ((1.0, -1.0), (-1.0, 2.0))


def test_identity_point():
    f = identity_map(2)
    p = np.array([0.123, 0.987])
    assert np.array_equal(eval_point(f, Direction.FORWARD, p), p)


def test_cat_map_box_enclosure():
    f = toral_map(CAT)
    lo, hi = eval_box(f, Direction.FORWARD, np.array([0.0, 0.0]), np.array([0.25, 0.25]))
    assert lo == pytest.approx([0.0, 0.0], abs=1e-14)
    assert hi == pytest.approx([0.75, 0.5], abs=1e-14)


def test_translation_box_enclosure():
    f = translation_map((0.5, 0.0))
    lo, hi = eval_box(f, Direction.FORWARD, np.array([0.0, 0.0]), np.array([0.1, 0.1]))
    assert lo == pytest.approx([0.5, 0.0], abs=1e-14)
    assert hi == pytest.approx([0.6, 0.1], abs=1e-14)


def test_pure_shear_box_enclosure():
    f = standard_map(0.0)
    box = Box((0.0, 0.2), (0.1, 0.3), Space.TORUS)
    lo, hi = eval_box(f, Direction.FORWARD, box.lo_arr, box.hi_arr)
    assert lo == pytest.approx([0.2, 0.2], abs=1e-14)
    assert hi == pytest.approx([0.4, 0.3], abs=1e-14)
    rng = np.random.default_rng(3)
    pts = box.lo_arr + rng.random((10_000, 2)) * (box.hi_arr - box.lo_arr)
    for p in pts:
        q = np.array([p[0] + p[1], p[1]])
        assert np.all(q >= lo) and np.all(q <= hi)


def test_builtin_grammar():
    cat = builtin_map("toral [[2,1],[1,1]]")
    assert cat.invertible and cat.n == 2
    with pytest.raises(InvalidMapError):
        builtin_map("toral [[2,0],[0,2]]")
    pert = builtin_map("perturbed [[2,1],[1,1]] eta=0.001 freq=1")
    assert not pert.invertible
    assert builtin_map("identity n=3").n == 3
    assert builtin_map("identity").n == 2
    assert builtin_map("standard K=0.5").kappa == 0.5
    aff = builtin_map("affine [[2,0],[0,0.5]] offset=[-0.5,0.2]", Space.CUBE)
    assert aff.offset == (-0.5, 0.2)


def test_builtin_grammar_with_spaces():
    f = builtin_map("toral [[2, 1], [1, 1]]")
    assert f.matrix == ((2.0, 1.0), (1.0, 1.0))


def test_builtin_grammar_rejects_garbage():
    for bad in (
        "",
        "frobnicate",
        "toral",
        "toral [[2,1],[1,1]] extra",
        "toral [[2,1],[1,1] ",
        "standard",
        "perturbed [[2,1],[1,1]] eta=-1",
    ):
        with pytest.raises(InvalidMapError):
            builtin_map(bad)


def test_descriptor_round_trip():
    specs = [
        identity_map(2),
        translation_map((0.25, 0.75)),
        toral_map(CAT),
        standard_map(0.3),
        perturbed_map(CAT, 1e-3, 2),
        affine_map(((2.0, 0.0), (0.0, 0.5)), (-0.5, 0.2), Space.CUBE),
    ]
    for f in specs:
        assert builtin_map(f.descriptor, f.space) == f
        d = f.to_json()
        assert builtin_map(d["descriptor"], d["space"]) == f


def _sample_family():
    return [
        identity_map(2),
        translation_map((0.25, 0.125)),
        toral_map(CAT),
        standard_map(0.7),
        perturbed_map(CAT, 1e-3, 1),
        affine_map(((0.5, 0.1), (0.0, 0.5)), (0.2, 0.1), Space.TORUS),
    ]


def _directions(f):
    return list(Direction) if f.invertible else [Direction.FORWARD]


def test_enclosure_soundness():
    rng = np.random.default_rng(17)
    for f in _sample_family():
        for direction in _directions(f):
            for _ in range(1000 // 6 + 1):
                lo = rng.random(2) * 0.7
                box = Box(tuple(lo), tuple(lo + rng.random(2) * 0.3), f.space)
                lo, hi = eval_box(f, direction, box.lo_arr, box.hi_arr)
                p = box.lo_arr + rng.random(2) * (box.hi_arr - box.lo_arr)
                q = eval_point(f, direction, p)
                assert any(b.contains_point(q) for b in split_lift(lo, hi, f.space)), (
                    f.descriptor,
                    direction,
                    p,
                    q,
                )


def test_batched_rows_match_single_points():
    rng = np.random.default_rng(5)
    for f in _sample_family():
        for k in (1, 2, 8, 1000):
            pts = rng.random((k, 2))
            batch = eval_points(f, pts)
            for row, p in zip(batch, pts):
                assert row.tobytes() == eval_point(f, Direction.FORWARD, p).tobytes(), (
                    f.descriptor,
                    k,
                )


def test_enclosure_monotone():
    rng = np.random.default_rng(23)
    for f in _sample_family():
        for _ in range(50):
            lo = rng.random(2) * 0.6
            outer = Box(tuple(lo), tuple(lo + 0.05 + rng.random(2) * 0.3), f.space)
            mid = rng.random(2)
            inner_lo = outer.lo_arr + 0.3 * mid * (outer.hi_arr - outer.lo_arr)
            inner_hi = outer.hi_arr - 0.3 * (1 - mid) * (outer.hi_arr - outer.lo_arr)
            inner = Box(tuple(inner_lo), tuple(inner_hi), f.space)
            el_lo, el_hi = eval_box(f, Direction.FORWARD, inner.lo_arr, inner.hi_arr)
            eo_lo, eo_hi = eval_box(f, Direction.FORWARD, outer.lo_arr, outer.hi_arr)
            assert all(a >= b for a, b in zip(el_lo, eo_lo))
            assert all(a <= b for a, b in zip(el_hi, eo_hi))


def test_inverse_round_trip():
    rng = np.random.default_rng(31)
    for f in _sample_family():
        if not f.invertible:
            with pytest.raises(NotInvertibleError):
                eval_point(f, Direction.INVERSE, (0.1, 0.2))
            continue
        worst = 0.0
        for p in rng.random((1000, 2)):
            q = eval_point(f, Direction.FORWARD, p)
            back = eval_point(f, Direction.INVERSE, q)
            err = np.abs(back - p)
            if f.space is Space.TORUS:
                err = np.minimum(err, 1.0 - err)
            worst = max(worst, float(err.max()))
        assert worst <= 1e-12, f.descriptor


def test_jacobian_exact_for_linear():
    f = toral_map(CAT)
    assert np.array_equal(jacobian(f, (0.3, 0.4)), np.array(CAT, dtype=float))


def test_jacobian_standard_map():
    k = 0.5
    f = standard_map(k)
    x = 0.3
    j = jacobian(f, (x, 0.7))
    c = k * math.cos(2 * math.pi * x)
    expected = np.array([[1 + c, 1.0], [c, 1.0]])
    assert np.allclose(j, expected, atol=1e-6)


def test_linear_plus_residual_covers_map():
    rng = np.random.default_rng(41)
    for f in (standard_map(0.9), perturbed_map(CAT, 0.01, 3)):
        f_cube = builtin_map(f.descriptor, Space.CUBE)
        for direction in _directions(f):
            parts = map_parts(f, direction)
            a, b = parts.a, parts.b
            for _ in range(200):
                lo = rng.random(2) * 0.7
                box = Box(tuple(lo), tuple(lo + rng.random(2) * 0.3), f.space)
                rlo, rhi = residual_range(f, direction, box.lo_arr, box.hi_arr)
                p = box.lo_arr + rng.random(2) * (box.hi_arr - box.lo_arr)
                q = eval_point(f_cube, direction, p)
                resid = q - (a @ p + b)
                assert np.all(resid >= rlo - 1e-12) and np.all(resid <= rhi + 1e-12)
