"""End-to-end acceptance gate: one criterion per test, one verdict line each.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (visible with
-s or in failure reports) and asserts the same condition, so the suite is
green exactly when every acceptance claim holds on this machine.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from cubeshadow.cli import main as cli_main
from cubeshadow.covering import (
    ChainedCertificate,
    CoveringCertificate,
    Rectangle,
    certify_chained,
    check_covering,
    compose_chain,
)
from cubeshadow.dynamics import Direction, affine_map, builtin_map, eval_point
from cubeshadow.geometry import Box, Space, chi, make_subdivision
from cubeshadow.oracle import (
    brute_force_fixed_points,
    brute_force_shadow,
    hyperbolic_splitting,
    linear_shadow,
)
from cubeshadow.shadowing import (
    Drift,
    UniformNoise,
    generate_pseudo_orbit,
    periodic_shadow,
    pseudo_orbit,
    shadow,
    specification_splice,
    verify_shadow,
)
from cubeshadow.transition import EdgeStatus, build_graph, delta_bound, find_path

CAT_DESC = "toral [[2,1],[1,1]]"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def cat():
    return builtin_map(CAT_DESC)


@pytest.fixture(scope="module")
def stack(cat):
    """Memoized (subdivision, graph, chained certificate) per order m."""
    cache = {}

    def build(m):
        if m not in cache:
            s = make_subdivision(2, m, Space.TORUS)
            g = build_graph(cat, s)
            cert = certify_chained(cat, s, g)
            assert isinstance(cert, ChainedCertificate)
            cache[m] = (s, g, cert)
        return cache[m]

    return build


def test_criterion_1_chained_certification(tmp_path):
    codes, m6_time = {}, None
    for m in (3, 4, 5, 6):
        t0 = time.perf_counter()
        codes[m] = cli_main(
            ["certify", "--map", CAT_DESC, "--m", str(m),
             "--out", str(tmp_path / f"m{m}")]
        )
        if m == 6:
            m6_time = time.perf_counter() - t0
    complete = {}
    for name, desc in (("identity", "identity"),
                       ("translation", "translation [0.3,0.1]")):
        out = tmp_path / name
        rc = cli_main(["certify", "--map", desc, "--m", "3", "--out", str(out)])
        rep = json.loads((out / "failure.json").read_text())["failure"]
        complete[name] = (
            rc == 2
            and rep["certified"] == 0
            and len(rep["failures"]) > 0
            and all(reason for _i, _j, reason in rep["failures"])
            and rep["certified"] + len(rep["failures"])
            + len(rep["excluded_boundary"]) == rep["total_edges"]
        )
    ok = (
        all(codes[m] == 0 for m in (3, 4, 5, 6))
        and all(complete.values())
        and m6_time < 60.0
    )
    report(
        1, ok,
        f"cat certify exits {codes} (m=6 in {m6_time:.1f}s < 60s); identity "
        f"and translation exit 2 with complete failure reports {complete}",
    )


def test_criterion_2_shadowing_bound(cat, stack):
    s, g, cert = stack(6)
    split = hyperbolic_splitting(cat)
    eps, delta = chi(s), 1e-4
    worst_eps = worst_ratio = 0.0
    all_ok = True
    for seed in range(20):
        p = generate_pseudo_orbit(cat, (0.2, 0.3), delta, 100, UniformNoise(seed))
        res = shadow(cat, p, cert, eps, g=g)
        rep = verify_shadow(cat, res.point, p, eps)
        ls = linear_shadow(split, p)
        t = np.asarray(rep.errors)
        o = np.asarray(ls.errors)
        hi, lo = np.maximum(t, o), np.minimum(t, o)
        ratio = float(np.max(hi / np.maximum(lo, 1e-300)))
        worst_eps = max(worst_eps, res.eps_achieved)
        worst_ratio = max(worst_ratio, ratio)
        all_ok &= (
            rep.ok
            and res.eps_achieved <= eps
            and res.eps_achieved <= 3 * delta
            and bool(np.all(hi <= 2.0 * lo + 1e-12))
        )
    report(
        2, all_ok,
        f"20 seeds at m=6: worst eps_achieved {worst_eps:.3e} <= "
        f"chi(D_6) {eps:.4f} and <= 3*delta {3 * delta:.0e}; worst per-step "
        f"toolkit/oracle ratio {worst_ratio:.6f} <= 2",
    )


def _sampled_empty_gap_minimum(f, s, g, samples_axis=100):
    """Min over graph-empty pairs of dist(f(C_i), C_j) on a closed sample grid.

    Linear evaluation inlined for the two maps under test (integer-matrix
    automorphism and identity); 100x100 closed samples per source cube are
    shared by all of its target pairs.
    """
    k = 1 << s.m
    w = 1.0 / k
    t = np.linspace(0.0, 1.0, samples_axis)
    lo = np.arange(k)[None, :] * w
    hi = lo + w
    best = np.inf
    for i1 in range(k):
        for i2 in range(k):
            xs = (i1 + t)[:, None] * w
            ys = (i2 + t)[None, :] * w
            pts = np.stack(np.broadcast_arrays(xs, ys), axis=-1).reshape(-1, 2)
            if f.matrix is not None:
                img = pts @ np.asarray(f.matrix_arr).T + f.offset_arr
            else:
                img = pts
            img = img - np.floor(img)
            ax = []
            for d in range(2):
                x = img[:, d][:, None]
                g0 = np.maximum(np.maximum(lo - x, x - hi), 0.0)
                gm = np.maximum(np.maximum(lo - 1.0 - x, x - hi + 1.0), 0.0)
                gp = np.maximum(np.maximum(lo + 1.0 - x, x - hi - 1.0), 0.0)
                ax.append(np.minimum(np.minimum(g0, gm), gp))
            d2 = ax[0][:, :, None] ** 2 + ax[1][:, None, :] ** 2
            dmin = np.sqrt(d2.min(axis=0))
            src = s.flat_index((i1, i2))
            for j1 in range(k):
                for j2 in range(k):
                    if g.status(src, s.flat_index((j1, j2))) is EdgeStatus.EMPTY:
                        best = min(best, float(dmin[j1, j2]))
    return best


def test_criterion_3_delta_bound_formula(cat):
    results, ok = [], True
    for f in (cat, builtin_map("identity")):
        for m in (2, 3, 4):
            s = make_subdivision(2, m, Space.TORUS)
            g = build_graph(f, s)
            bound = delta_bound(g)
            brute = _sampled_empty_gap_minimum(f, s, g)
            ok &= bound <= brute + 1e-12 and brute - bound <= 1e-3
            results.append(f"{f.kind.value} m={m}: {brute - bound:+.1e}")
    report(3, ok, "delta_bound within 1e-3 under the sampled minimum and "
                  "never above it (" + ", ".join(results) + ")")


def test_criterion_4_composition():
    rng = np.random.default_rng(42)
    certified = through = 0
    for _trial in range(100):
        lam = rng.uniform(2.0, 3.5)
        mu = rng.uniform(0.2, 0.5)
        off = (0.5 * (1 - lam) + rng.uniform(-0.005, 0.005),
               0.5 * (1 - mu) + rng.uniform(-0.005, 0.005))
        f = affine_map([[lam, 0.0], [0.0, mu]], off, space=Space.CUBE)

        def rect(cx, cy, hx, hy):
            return Rectangle(Box((cx - hx, cy - hy), (cx + hx, cy + hy), Space.CUBE))

        c2x, c2y = 0.5 + rng.uniform(-0.01, 0.01, 2)
        a2, b2 = rng.uniform(0.05, 0.1, 2)
        r2 = rect(c2x, c2y, a2, b2)
        r1 = rect(*(0.5 + rng.uniform(-0.005, 0.005, 2)),
                  a2 / lam * rng.uniform(1.0, 2.2),
                  b2 / mu * rng.uniform(0.35, 1.15))
        r3 = rect(*(0.5 + rng.uniform(-0.005, 0.005, 2)),
                  a2 * lam * rng.uniform(0.35, 1.1),
                  b2 * mu * rng.uniform(0.95, 2.5))
        link1 = check_covering(f, r1, r2)
        link2 = check_covering(f, r2, r3)
        if isinstance(link1, CoveringCertificate) and isinstance(
            link2, CoveringCertificate
        ):
            compose_chain([link1, link2])
            certified += 1
            t = np.linspace(0, 1, 200)
            xs = r1.box.lo[0] + t * (r1.box.hi[0] - r1.box.lo[0])
            ys = r1.box.lo[1] + t * (r1.box.hi[1] - r1.box.lo[1])
            pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2)
            mat = np.array([[lam, 0.0], [0.0, mu]])
            img1 = pts @ mat.T + off
            img2 = img1 @ mat.T + off
            in2 = np.all((img1 >= r2.box.lo_arr) & (img1 <= r2.box.hi_arr), axis=1)
            in3 = np.all((img2 >= r3.box.lo_arr) & (img2 <= r3.box.hi_arr), axis=1)
            if bool((in2 & in3).any()):
                through += 1
    ok = certified >= 30 and through == certified
    report(
        4, ok,
        f"{certified}/100 random 2-chains composed; through-orbit found for "
        f"{through}/{certified} of them",
    )


def test_criterion_5_robustness(stack):
    _s, _g, cert = stack(5)
    mu = cert.margin()
    small = builtin_map(f"perturbed [[2,1],[1,1]] eta={mu / 2!r} freq=1")
    small_failures = 0
    for (_i, _j), c in sorted(cert.certificates.items()):
        if not isinstance(check_covering(small, c.source, c.target),
                          CoveringCertificate):
            small_failures += 1
    big = builtin_map(f"perturbed [[2,1],[1,1]] eta={10 * mu!r} freq=1")
    big_breaks = False
    for (_i, _j), c in sorted(cert.certificates.items()):
        if not isinstance(check_covering(big, c.source, c.target),
                          CoveringCertificate):
            big_breaks = True
            break
    ok = small_failures == 0 and big_breaks
    report(
        5, ok,
        f"mu*={mu:.3e}: eta=mu*/2 re-certifies all "
        f"{len(cert.certificates)} edges ({small_failures} failures); "
        f"eta=10mu* breaks at least one edge ({big_breaks})",
    )


def test_criterion_6_periodic_shadowing(cat, stack):
    _s, g, cert = stack(3)
    rng = np.random.default_rng(2)
    delta = 1e-4

    def noisy(points):
        out = []
        for q in points:
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            out.append(tuple((np.asarray(q) + v * 0.2 * delta) % 1.0))
        return pseudo_orbit(cat, out, delta, periodic=len(out))

    r1 = periodic_shadow(cat, noisy([(0.0, 0.0)]), cert, eps=0.05, g=g)
    d1 = max(min(float(abs(v)), 1.0 - float(abs(v))) for v in r1.point)
    census = brute_force_fixed_points(
        cat, Box((0.0, 0.0), (1.0, 1.0), Space.TORUS), 2, 200
    )
    r2 = periodic_shadow(cat, noisy([(0.2, 0.4), (0.8, 0.6)]), cert, eps=0.05, g=g)
    d2 = max(abs(float(a) - b) for a, b in zip(r2.point, (0.2, 0.4)))
    ok = (
        d1 <= 1e-6
        and len(census.points) == 5
        and not census.degenerate
        and d2 <= 1e-6
        and r2.minimal_period == 2
    )
    report(
        6, ok,
        f"period-1 recovered to {d1:.1e}; brute census finds "
        f"{len(census.points)} period-2 points; period-2 recovered to {d2:.1e}",
    )


def test_criterion_7_specification_splice(cat, stack):
    s, g, cert = stack(5)
    eps = chi(s)
    c1, c2 = 407, 656
    dist_fwd = len(find_path(g, c1, c2)) - 1
    dist_back = len(find_path(g, c2, c1)) - 1

    def segment(start_cube, length=10):
        seg = [s.box(start_cube).center]
        for _ in range(length - 1):
            seg.append(
                tuple(float(v) for v in eval_point(cat, Direction.FORWARD, seg[-1]))
            )
        return seg

    seg1, seg2 = segment(c1), segment(c2)
    p = specification_splice(cat, g, [seg1, seg2], gap=6)
    res = periodic_shadow(cat, p, cert, eps, g=g)
    rep = verify_shadow(cat, res.point, p, eps)
    j = list(p.points).index(seg2[0])
    sup1 = max(rep.errors[k] for k in range(10))
    sup2 = max(rep.errors[k] for k in range(j, j + 10))
    ok = (
        min(dist_fwd, dist_back) >= 3
        and rep.ok
        and sup1 < eps
        and sup2 < eps
    )
    report(
        7, ok,
        f"cubes {c1}->{c2} at graph distance {dist_fwd}/{dist_back}; spliced "
        f"period {p.periodic} orbit shadowed; segment error sups "
        f"{sup1:.4f}, {sup2:.4f} < chi(D_5) {eps:.4f}",
    )


def test_criterion_8_negative_shadowing(tmp_path):
    ident = builtin_map("identity")
    p = generate_pseudo_orbit(ident, (0.25, 0.5), 0.025, 10, Drift((1.0, 0.0)))
    span = max(q[0] for q in p.points) - min(q[0] for q in p.points)
    best = brute_force_shadow(ident, p, 256, eps=0.35)
    rc = cli_main(
        ["shadow", "--map", "identity", "--mode", "drift", "--delta", "0.025",
         "--window", "10", "--m", "3", "--out", str(tmp_path)]
    )
    ok = (
        abs(span - 0.5) < 1e-5
        and best.max_err >= 0.24
        and rc == 2
        and (tmp_path / "failure.json").exists()
    )
    report(
        8, ok,
        f"drift span {span:.6f}; best static point max_err {best.max_err:.4f} "
        f">= 0.24 (analytic 0.25); pipeline exits {rc} at certification",
    )


def test_criterion_9_oracle_self_consistency(cat):
    # Doubling clause: constant error delta = 1/4 on the dyadic-grid orbit
    # makes the expanding correction saturate bitwise at exactly delta far
    # enough from the free future edge.
    doubling = affine_map([[2.0]], space=Space.TORUS)
    y, ys = round(0.1 * 2 ** 40) / 2 ** 40, []
    for _ in range(101):
        ys.append((y,))
        y = (2.0 * y + 0.25) % 1.0
    p = pseudo_orbit(doubling, ys, 0.2500001)
    sh = linear_shadow(hyperbolic_splitting(doubling), p)
    translate_exact = all(
        sh.points[k][0] == (p.points[k][0] + 0.25) % 1.0 for k in range(47)
    )

    # Eigen-coordinate bound clause, asserted exactly as stated.  The
    # two-sided deviation series is unique, and its expanding and
    # contracting parts obey sup|w_u| <= delta/(lam_u - 1) and
    # sup|w_s| <= delta/(1 - lam_s); for a determinant-one symmetric
    # matrix the second constant equals lam_u/(lam_u - 1), so the joint
    # sup can exceed 2*delta/(lam_u - 1), and measurably does.
    split = hyperbolic_splitting(cat)
    delta = 1e-4
    worst = 0.0
    for seed in range(50):
        orbit = generate_pseudo_orbit(cat, (0.2, 0.3), delta, 100,
                                      UniformNoise(seed))
        coords = np.asarray(linear_shadow(split, orbit).coords)
        worst = max(worst, float(np.max(np.abs(coords))) / delta)
    literal = 2.0 / (split.lam_u - 1.0)
    provable = 1.0 / (split.lam_u - 1.0) + 1.0 / (1.0 - split.lam_s)
    ok = translate_exact and worst <= literal
    report(
        9, ok,
        f"doubling translate exact: {translate_exact}; cat eigen-sup worst "
        f"{worst:.10f}*delta over 50 seeds vs stated bound 2/(lam_u-1) = "
        f"{literal:.10f}*delta (the attainable bound 1/(lam_u-1) + "
        f"1/(1-lam_s) = {provable:.10f}*delta does hold)",
    )
