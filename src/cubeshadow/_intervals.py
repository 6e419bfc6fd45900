"""Outward-rounded interval helpers used by enclosures and distance bounds.

Python exposes no directed-rounding control, so every operation that could
round toward the interval interior is followed by a fixed number of ULP
nudges outward (NUDGE_ULPS).  Dyadic grid data is exact in binary floating
point, so the nudges only matter for genuinely inexact quantities; they are
one-sided, hence always conservative.
"""

import math

import numpy as np

# Outward inflation applied after inexact arithmetic, in units in the last place.
NUDGE_ULPS = 4

_TWO_PI = 2.0 * np.pi


def nudge_down(x, ulps=NUDGE_ULPS):
    """Largest-representable lower bound: x nudged `ulps` steps toward -inf."""
    out = np.asarray(x, dtype=float).copy()
    for _ in range(ulps):
        out = np.nextafter(out, -np.inf)
    return out


def nudge_up(x, ulps=NUDGE_ULPS):
    """Smallest-representable upper bound: x nudged `ulps` steps toward +inf."""
    out = np.asarray(x, dtype=float).copy()
    for _ in range(ulps):
        out = np.nextafter(out, np.inf)
    return out


def widen(lo, hi, ulps=NUDGE_ULPS):
    """Outward-rounded copy of an interval vector (lo, hi)."""
    return nudge_down(lo, ulps), nudge_up(hi, ulps)


def widen_float(lo: float, hi: float, ulps=NUDGE_ULPS) -> tuple[float, float]:
    """widen for one scalar interval, in Python floats."""
    for _ in range(ulps):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def mat_interval(mat, lo, hi):
    """Enclosure of {M x : x in [lo, hi]} as (lo', hi'), outward rounded.

    Splits M into positive and negative parts so each output bound is a
    single dot product; exact when M and the bounds are small integers or
    dyadics, outward-nudged otherwise.
    """
    m = np.asarray(mat, dtype=float)
    return signed_interval(np.clip(m, 0.0, None), np.clip(m, None, 0.0), lo, hi)


def signed_interval(pos, neg, lo, hi):
    """mat_interval for M given as its positive and negative parts."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    return widen(pos @ lo + neg @ hi, pos @ hi + neg @ lo)


def sin_range(lo, hi):
    """Enclosure of {sin(t) : t in [lo, hi]} (scalar interval, radians)."""
    lo = float(lo)
    hi = float(hi)
    if hi - lo >= _TWO_PI:
        return -1.0, 1.0
    s_lo = min(np.sin(lo), np.sin(hi))
    s_hi = max(np.sin(lo), np.sin(hi))
    # Peak at pi/2 + 2*pi*k inside [lo, hi] forces the max to 1; trough likewise.
    k_hi = np.ceil((lo - np.pi / 2.0) / _TWO_PI)
    if np.pi / 2.0 + _TWO_PI * k_hi <= hi:
        s_hi = 1.0
    k_lo = np.ceil((lo + np.pi / 2.0) / _TWO_PI)
    if -np.pi / 2.0 + _TWO_PI * k_lo <= hi:
        s_lo = -1.0
    s_lo, s_hi = widen_float(s_lo, s_hi)
    return max(-1.0, s_lo), min(1.0, s_hi)
