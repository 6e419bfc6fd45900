"""Outward-rounded interval helpers used by enclosures and distance bounds.

Python exposes no directed-rounding control, so every operation that could
round toward the interval interior is followed by a fixed number of ULP
nudges outward (NUDGE_ULPS).  Dyadic grid data is exact in binary floating
point, so the nudges only matter for genuinely inexact quantities; they are
one-sided, hence always conservative.

A nudge steps on integers: consecutive doubles have consecutive images
under the ordered-integer map (the bits of x >= 0, INT64_MIN minus the
bits of x < 0, which sends both zeros to 0), so k ulps are one integer
add.  The result has the bits of k calls of ``np.nextafter``, the sign
of a step that lands on zero included.  Small arrays, and arrays with a
value outside +-1e300 (where a step could reach the inf and NaN
patterns), take the ``np.nextafter`` loop itself.
"""

import numpy as np

# Outward inflation applied after inexact arithmetic, in units in the last place.
NUDGE_ULPS = 4

_TWO_PI = 2.0 * np.pi


# Below this many elements a loop of np.nextafter beats the integer step.
_SMALL_NUDGE = 256
_INT64_MIN = np.iinfo(np.int64).min


def _step_ulps(x, ulps: int, toward: float):
    """x stepped ``ulps`` representable doubles toward +-inf, as a new array."""
    out = np.array(x, dtype=float)  # a copy in the input's memory order
    # With no step, the integer path would turn -0.0 into +0.0.
    if ulps == 0 or out.size < _SMALL_NUDGE or not (-1e300 <= out.min() and out.max() <= 1e300):
        for _ in range(ulps):
            out = np.nextafter(out, toward)
        return out
    bits = out.view(np.int64)  # in place on the copy, whatever its memory order
    np.subtract(_INT64_MIN, bits, out=bits, where=bits < 0)
    bits += ulps if toward > 0 else -ulps
    np.subtract(_INT64_MIN, bits, out=bits, where=bits < 0)
    if toward > 0:  # landing on zero from below gives -0.0, as nextafter does
        bits[bits == 0] = _INT64_MIN
    return out


def nudge_down(x, ulps=NUDGE_ULPS):
    """Largest-representable lower bound: x nudged `ulps` steps toward -inf."""
    return _step_ulps(x, ulps, -np.inf)


def nudge_up(x, ulps=NUDGE_ULPS):
    """Smallest-representable upper bound: x nudged `ulps` steps toward +inf."""
    return _step_ulps(x, ulps, np.inf)


def widen(lo, hi, ulps=NUDGE_ULPS):
    """Outward-rounded copy of an interval vector (lo, hi)."""
    return nudge_down(lo, ulps), nudge_up(hi, ulps)


def mat_interval(mat, lo, hi):
    """Enclosure of {M x : x in [lo, hi]} as (lo', hi'), outward rounded.

    Splits M into positive and negative parts so each output bound is a
    single dot product; exact when M and the bounds are small integers or
    dyadics, outward-nudged otherwise.  ``mat`` may also be a stack with
    one matrix per row of the bounds: each product is then one stacked
    matrix-vector product per row, which gives a row the bits of its
    own ``M @ x`` (a single ``X @ M.T`` would not).
    """
    m = np.asarray(mat, dtype=float)
    pos, neg = np.clip(m, 0.0, None), np.clip(m, None, 0.0)
    lo = np.asarray(lo, float)[..., None]
    hi = np.asarray(hi, float)[..., None]
    return widen(
        (np.matmul(pos, lo) + np.matmul(neg, hi))[..., 0],
        (np.matmul(pos, hi) + np.matmul(neg, lo))[..., 0],
    )


def sin_range(lo, hi):
    """Enclosure of {sin(t) : t in [lo, hi]} for every interval of two arrays (radians)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    s_a, s_b = np.sin(lo), np.sin(hi)
    # Peak at pi/2 + 2*pi*k inside [lo, hi] forces the max to 1; trough likewise.
    peak = np.pi / 2.0 + _TWO_PI * np.ceil((lo - np.pi / 2.0) / _TWO_PI) <= hi
    trough = -np.pi / 2.0 + _TWO_PI * np.ceil((lo + np.pi / 2.0) / _TWO_PI) <= hi
    s_lo, s_hi = widen(
        np.where(trough, -1.0, np.minimum(s_a, s_b)),
        np.where(peak, 1.0, np.maximum(s_a, s_b)),
    )
    full = hi - lo >= _TWO_PI
    return (
        np.where(full, -1.0, np.maximum(s_lo, -1.0)),
        np.where(full, 1.0, np.minimum(s_hi, 1.0)),
    )
