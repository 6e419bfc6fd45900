"""Host speed reference, sampled on a timer while the benchmark runs.

On a shared host the same computation can take 1.5 times as long from one
minute to the next, which swamps the differences the benchmark is meant to
show.  A ``SpeedSampler`` runs ``reference()`` (a fixed pure-Python
computation that uses no cubeshadow code) from a SIGALRM handler every
``period`` seconds, in the benchmark's own thread.  A raw duration over an
interval is turned into a *normalized* one by removing the time spent in
the handler and scaling by ``NOMINAL_S`` / (median reference duration
sampled in and around the interval): the time the interval would have
taken on a host that runs the reference in ``NOMINAL_S``.

Only the standard library is imported, so sampling can start before the
benchmark imports numpy and cubeshadow.
"""

import json
import signal
import statistics
import time
from fractions import Fraction

# Median duration of reference() on the development host (2-core Xeon VM,
# Python 3.11); it fixes the scale of normalized times, not their ratios.
NOMINAL_S = 0.004


def reference() -> int:
    """Fixed mixed work: integer loops, dicts, Fractions, sorting, JSON."""
    acc = 0
    table = {}
    for i in range(9000):
        acc += (i * 7) % 13
        table[i & 511] = acc
    x = Fraction(1, 3)
    for _ in range(180):
        x = (x * 3 + Fraction(1, 7)) % 1
    words = sorted(str(i * 2654435761 % 1000003) for i in range(2200))
    json.dumps({"w": words[:400], "t": list(table.items())[:300]})
    return acc


class SpeedSampler:
    """Reference timings taken every ``period`` seconds of wall time."""

    def __init__(self, period: float = 0.2):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, end) per run
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter()))

    def normalize(self, start: float, end: float, pad: float = 1.0) -> float:
        """Normalized duration of [start, end] (sampler time excluded).

        The speed is the median reference duration over samples that began
        within ``pad`` seconds of the interval; with none, the nearest ones.
        """
        spent = sum(
            min(b, end) - max(a, start) for a, b in self.samples if a < end and b > start
        )
        near = [b - a for a, b in self.samples if start - pad <= a <= end + pad]
        if len(near) < 3:
            ranked = sorted(self.samples, key=lambda s: abs(s[0] - 0.5 * (start + end)))
            near = [b - a for a, b in ranked[:5]]
        return (end - start - spent) * NOMINAL_S / statistics.median(near)
