"""Independent ground truth: closed-form shadows and brute-force searches.

For linear hyperbolic toral automorphisms the shadowing problem splits
along the eigenbasis, where each deviation component obeys a scalar
recursion whose stable solution is an explicit geometric series.  That
gives an exact-up-to-rounding shadow to cross-check the certified
pipeline.  Brute-force lattice searches provide a second, assumption-free
check for fixed points and small shadowing instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Direction, MapSpec, eval_points, lift_points, map_parts, wrap_points
from .errors import NotHyperbolicError
from .geometry import Box, Space
from .shadowing import PseudoOrbit, _profile_csv

_UNIT_GAP = 1e-9


def _torus_diff(space: Space, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a - b
    if space is Space.TORUS:
        d = d - np.rint(d)
    return d


# --- eigen splitting ---------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicSplitting:
    """Real eigen decomposition of a linear map with no unit-circle spectrum.

    basis columns are unit eigenvectors ordered by decaying |eigenvalue|,
    so index 0 is the strongest expansion and index -1 the strongest
    contraction (absent in one dimension).
    """

    matrix: tuple[tuple[float, ...], ...]
    eigenvalues: tuple[float, ...]
    basis: tuple[tuple[float, ...], ...]
    basis_inv: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lam_u(self) -> float:
        return self.eigenvalues[0]

    @property
    def lam_s(self) -> float:
        return self.eigenvalues[-1] if self.n > 1 else 0.0

    @property
    def v_s(self) -> tuple[float, ...] | None:
        if self.n < 2:
            return None
        return tuple(row[-1] for row in self.basis)


def hyperbolic_splitting(f: MapSpec) -> HyperbolicSplitting:
    """Eigen split of f's linear part; NotHyperbolicError without one."""
    mat = f.matrix_arr
    vals, vecs = np.linalg.eig(mat)
    if np.max(np.abs(vals.imag)) > 1e-12 * (1.0 + np.max(np.abs(vals.real))):
        raise NotHyperbolicError(f"{f.descriptor} has complex spectrum")
    vals = vals.real
    order = np.argsort(-np.abs(vals), kind="stable")
    vals, vecs = vals[order], vecs.real[:, order]
    if abs(vals[0]) <= 1.0 + _UNIT_GAP:
        raise NotHyperbolicError(f"{f.descriptor} has no expanding direction")
    if np.any(np.abs(np.abs(vals) - 1.0) <= _UNIT_GAP):
        raise NotHyperbolicError(f"{f.descriptor} has spectrum on the unit circle")
    for j in range(vecs.shape[1]):
        col = vecs[:, j] / np.linalg.norm(vecs[:, j])
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        vecs[:, j] = col if lead >= 0 else -col
    freeze = lambda m: tuple(tuple(float(v) for v in row) for row in m)
    return HyperbolicSplitting(
        matrix=freeze(mat),
        eigenvalues=tuple(float(v) for v in vals),
        basis=freeze(vecs),
        basis_inv=freeze(np.linalg.inv(vecs)),
    )


# --- closed-form linear shadow -----------------------------------------------

@dataclass(frozen=True)
class LinearShadow:
    """Shadow orbit x_k = y_k + w_k for a linear map's pseudo-orbit.

    The deviation w solves w_{k+1} = A w_k - e_k; expanding eigen
    components are summed backward from a zero value at the window's
    future edge, contracting ones forward from the past edge, so interior
    steps conjugate exactly and the free edges cost at most
    truncation_bound against the bi-infinite shadow.
    """

    points: tuple
    deviations: tuple
    coords: tuple
    truncation_bound: float
    lo: int = 0
    periodic: int | None = None

    @property
    def hi(self) -> int:
        return self.lo + len(self.points) - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def point(self, k: int):
        if self.periodic is not None:
            return self.points[k % len(self.points)]
        return self.points[k - self.lo]

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(
            float(np.linalg.norm(np.asarray(w))) for w in self.deviations
        )

    @property
    def max_error(self) -> float:
        return max(self.errors)

    @property
    def coord_sup(self) -> tuple[float, ...]:
        arr = np.asarray(self.coords)
        return tuple(float(v) for v in np.max(np.abs(arr), axis=0))

    def to_json(self) -> dict:
        return {
            "source": "oracle",
            "points": [list(p) for p in self.points],
            "window": list(self.window),
            "periodic": self.periodic,
            "max_error": self.max_error,
            "truncation_bound": self.truncation_bound,
        }

    def to_csv(self, p: PseudoOrbit) -> str:
        return _profile_csv(self.lo, p.points, self.points, self.errors)


def linear_shadow(split: HyperbolicSplitting, p: PseudoOrbit) -> LinearShadow:
    """Exact shadow of a pseudo-orbit under the split linear map."""
    mat = np.array(split.matrix)
    basis = np.array(split.basis)
    basis_inv = np.array(split.basis_inv)
    lams = np.array(split.eigenvalues)
    y = np.array(p.points)
    count = len(y)

    nxt = np.roll(y, -1, axis=0) if p.periodic is not None else y[1:]
    src = y if p.periodic is not None else y[:-1]
    e = _torus_diff(p.space, nxt, src @ mat.T)
    ec = e @ basis_inv.T

    w = np.zeros((count, len(lams)))
    steps = len(ec)
    for i, lam in enumerate(lams):
        if p.periodic is not None:
            shifts = np.arange(steps)
            if abs(lam) > 1.0:
                weights = lam ** -(shifts + 1.0)
                scale = 1.0 - lam ** -float(steps)
            else:
                weights = -(lam ** shifts)
                scale = 1.0 - lam ** float(steps)
            for k in range(count):
                if abs(lam) > 1.0:
                    idx = (k + shifts) % steps
                else:
                    idx = (k - 1 - shifts) % steps
                w[k, i] = float(weights @ ec[idx, i]) / scale
        elif abs(lam) > 1.0:
            for k in range(steps - 1, -1, -1):
                w[k, i] = (w[k + 1, i] + ec[k, i]) / lam
        else:
            for k in range(steps):
                w[k + 1, i] = lam * w[k, i] - ec[k, i]

    wv = w @ basis.T
    x = wrap_points(p.space, y + wv)

    if p.periodic is not None or steps == 0:
        bound = 0.0
    else:
        sup = np.max(np.abs(ec), axis=0)
        ks = np.arange(count)
        total = np.zeros(count)
        for i, lam in enumerate(lams):
            a = abs(lam)
            if a > 1.0:
                total += a ** -(steps - ks).astype(float) * sup[i] / (a - 1.0)
            else:
                total += a ** ks.astype(float) * sup[i] / (1.0 - a)
        bound = float(np.max(total))

    to_tuple = lambda arr: tuple(tuple(float(v) for v in row) for row in arr)
    return LinearShadow(
        points=to_tuple(x),
        deviations=to_tuple(wv),
        coords=to_tuple(w),
        truncation_bound=bound,
        lo=p.lo,
        periodic=p.periodic,
    )


# --- brute-force searches ----------------------------------------------------

@dataclass(frozen=True)
class FixedPointSearch:
    points: tuple
    residuals: tuple[float, ...]
    degenerate: bool
    threshold: float
    grid: int

    def to_json(self) -> dict:
        return {
            "source": "oracle",
            "points": [list(p) for p in self.points],
            "residuals": list(self.residuals),
            "degenerate": self.degenerate,
            "threshold": self.threshold,
            "grid": self.grid,
        }


def _power_eval(f: MapSpec, pts: np.ndarray, period: int) -> np.ndarray:
    out = pts
    for _ in range(period):
        out = eval_points(f, out)
    return out


def _period_residuals(f: MapSpec, pts: np.ndarray, period: int) -> np.ndarray:
    d = _torus_diff(f.space, _power_eval(f, pts, period), pts)
    return np.linalg.norm(d, axis=-1)


def _stretch_bound(f: MapSpec, period: int) -> float:
    """Crude Lipschitz-style bound on f^period for threshold scaling."""
    parts = map_parts(f)
    base = float(np.linalg.norm(parts.a, 2))
    if parts.residual is not None:
        base += parts.residual.slope
    return max(base, 1.0) ** period


def _polish(f: MapSpec, period: int, center: np.ndarray, half: float) -> np.ndarray:
    """Shrink a sampling box around the residual minimum down to 1e-9."""
    offsets = np.linspace(-1.0, 1.0, 5)
    mesh = np.stack(
        np.meshgrid(*([offsets] * len(center)), indexing="ij"), axis=-1
    ).reshape(-1, len(center))
    while half > 5e-10:
        cand = center + half * mesh
        vals = _period_residuals(f, cand, period)
        center = cand[int(np.argmin(vals))]
        half *= 0.6
    return center


def brute_force_fixed_points(
    f: MapSpec, region: Box, period: int, grid: int
) -> FixedPointSearch:
    """Lattice search for approximate period-`period` points in region.

    Local residual minima below a stretch-scaled threshold get polished
    to 1e-9 and deduplicated.  A map whose residual vanishes on a large
    fraction of the lattice (an identity-like degeneracy) returns the
    degenerate flag and no points, since its minima are not isolated.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if period < 1:
        raise ValueError("period must be >= 1")
    n = len(region.lo)
    spans = [b - a for a, b in zip(region.lo, region.hi)]
    axes = [
        a + span * np.arange(grid) / grid
        for a, span in zip(region.lo, spans)
    ]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    vals = _period_residuals(f, pts, period).reshape((grid,) * n)

    pitch = max(span / grid for span in spans)
    threshold = (_stretch_bound(f, period) + 1.0) * pitch
    is_min = np.ones_like(vals, dtype=bool)
    for ax in range(n):
        full_circle = (
            f.space is Space.TORUS
            and abs(spans[ax] - 1.0) < 1e-12
        )
        for shift in (-1, 1):
            neighbor = np.roll(vals, shift, axis=ax)
            if not full_circle:
                # the rolled-in face wrapped from the far side; ignore it
                edge = [slice(None)] * n
                edge[ax] = 0 if shift == 1 else grid - 1
                neighbor[tuple(edge)] = np.inf
            is_min &= vals <= neighbor
    qualify = is_min & (vals <= threshold)
    count = int(np.count_nonzero(qualify))
    if count > 0.1 * vals.size:
        return FixedPointSearch(
            points=(),
            residuals=(),
            degenerate=True,
            threshold=threshold,
            grid=grid,
        )

    order = np.argwhere(qualify)
    candidates = [
        np.array([axes[d][idx[d]] for d in range(n)]) for idx in order
    ]
    polished = []
    for c in candidates:
        q = _polish(f, period, c, pitch)
        q = wrap_points(f.space, q)
        # canonical representative: a zero that polished to 1 - tiny wraps home
        q = np.where(1.0 - q < 1e-7, 0.0, q)
        polished.append(q)

    kept = []
    for q in sorted(polished, key=lambda v: tuple(v)):
        res = float(_period_residuals(f, q[None, :], period)[0])
        if res > 1e-6:
            continue
        if any(
            float(np.linalg.norm(_torus_diff(f.space, q, k[0]))) < 1e-6
            for k in kept
        ):
            continue
        kept.append((q, res))
    return FixedPointSearch(
        points=tuple(tuple(float(v) for v in q) for q, _ in kept),
        residuals=tuple(res for _, res in kept),
        degenerate=False,
        threshold=threshold,
        grid=grid,
    )


@dataclass(frozen=True)
class ShadowSearch:
    point: tuple[float, ...]
    max_err: float
    window: tuple[int, int]
    grid: int
    eps: float

    def to_json(self) -> dict:
        return {
            "source": "oracle",
            "point": list(self.point),
            "max_err": self.max_err,
            "window": list(self.window),
            "grid": self.grid,
            "eps": self.eps,
        }


def brute_force_shadow(
    f: MapSpec, p: PseudoOrbit, grid: int, eps: float
) -> ShadowSearch:
    """Exhaustive lattice search near y_0 for the best-tracking point.

    Candidates are the grid^n cell centers of [y_0 - eps, y_0 + eps]^n;
    the winner minimizes the max tracking distance over the window, ties
    broken lexicographically.  Negative times need an invertible map and
    are otherwise skipped (the reported window says which half ran).
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    y0 = np.asarray(p.point(0), dtype=float)
    n = len(y0)
    axes = [
        c - eps + 2.0 * eps * (np.arange(grid) + 0.5) / grid for c in y0
    ]
    cands = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    cands = wrap_points(f.space, cands)

    errs = np.linalg.norm(
        _torus_diff(p.space, cands, y0), axis=1
    )
    cur = cands
    for k in range(1, p.hi + 1):
        cur = eval_points(f, cur)
        d = np.linalg.norm(
            _torus_diff(p.space, cur, np.asarray(p.point(k))), axis=1
        )
        errs = np.maximum(errs, d)
    lo_used = 0
    if p.lo < 0 and f.invertible:
        lo_used = p.lo
        cur = cands
        for k in range(-1, p.lo - 1, -1):
            cur = wrap_points(f.space, lift_points(f, Direction.INVERSE, cur))
            d = np.linalg.norm(
                _torus_diff(p.space, cur, np.asarray(p.point(k))), axis=1
            )
            errs = np.maximum(errs, d)

    best = int(np.argmin(errs))
    return ShadowSearch(
        point=tuple(float(v) for v in cands[best]),
        max_err=float(errs[best]),
        window=(lo_used, p.hi),
        grid=grid,
        eps=float(eps),
    )
