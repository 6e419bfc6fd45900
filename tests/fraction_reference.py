"""Fraction reference for the exact orbit walk and its window errors.

One ``Fraction`` operation at a time, the way the exact path walked before
it moved to integer numerators over one denominator: the map and its exact
inverse as Fraction matrices, reduction mod 1 on the torus after every
step, and errors taken to the nearest lift before one float conversion
per coordinate.  The integer walk must reproduce these values exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cubeshadow.dynamics import Direction
from cubeshadow.geometry import Space


def _inverse(m):
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def step(f, direction: Direction):
    """x -> M x + c (or its inverse) on Fraction vectors, reduced mod 1 on the torus."""
    mat = [[Fraction(v) for v in row] for row in f.matrix]
    off = [Fraction(v) for v in f.offset]
    if direction is Direction.INVERSE:
        mat = _inverse(mat)
        off = [-v for v in _mat_vec(mat, off)]

    def apply(x):
        y = [a + b for a, b in zip(_mat_vec(mat, x), off)]
        if f.space is Space.TORUS:
            y = [v - math.floor(v) for v in y]
        return tuple(y)

    return apply


def true_orbit(f, x, lo: int, hi: int) -> list[tuple]:
    """The orbit of the rational x at times lo..hi; time 0 is x itself."""

    def walk(direction: Direction, steps: int) -> list[tuple]:
        pts = [tuple(x)]
        for _ in range(steps):
            pts.append(step(f, direction)(pts[-1]))
        return pts

    return walk(Direction.INVERSE, -lo)[:0:-1] + walk(Direction.FORWARD, hi)


def window_errors(p, orbit) -> list[float]:
    """Distance of orbit[j] to the pseudo-orbit point at time p.lo + j."""
    out = []
    for k, y in enumerate(orbit, start=p.lo):
        d = [a - Fraction(b) for a, b in zip(y, p.point(k))]
        if p.space is Space.TORUS:
            d = [v - math.floor(v + Fraction(1, 2)) for v in d]
        out.append(math.hypot(*[float(v) for v in d]))
    return out
