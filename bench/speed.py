"""Machine-speed reference for the certify benchmark.

On a small shared machine the speed of one core drifts by 20-30% within a
minute, as neighbours come and go. Wall time alone then spreads more across
runs than the changes the benchmark should resolve. So the benchmark also
times a fixed reference workload, written here and independent of the
program, next to the calls it measures, and reports each call's wall time
scaled to a fixed reference speed:

    scaled = wall * REFERENCE_S / (mean reference time around the call)

A ``SpeedSampler`` runs the reference every ``INTERVAL_S`` seconds from a
timer signal in the measuring thread, so the samples interleave with the
call on the same core; the time spent in the samples is left out of the
call's wall time. The reference mixes what the library spends its time on:
products of small coefficient-tuple polynomials mod 3 (``fppoly``) and numpy
fancy-indexing on small group tables (``quotients``).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# Reference seconds of one `reference_work()` at the speed scaled times refer to.
REFERENCE_S = 0.0006
INTERVAL_S = 0.1
# Samples this close to a call's ends still count for it.
PAD_S = 0.2
BURST_REPEATS = 9


class _Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs

    def __mul__(self, other: "_Poly") -> "_Poly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % 3
        return _Poly(tuple(out))


_POLYS = [_Poly(tuple((i * 7 + j) % 3 for j in range(4))) for i in range(12)]
_TABLE = (np.arange(64)[:, None] * 5 + np.arange(64)[None, :]) % 64


def reference_work() -> int:
    """A fixed amount of work, about 0.6 ms on a 2.1 GHz Xeon core."""
    seen: dict[tuple[int, ...], int] = {}
    for a in _POLYS:
        for b in _POLYS:
            c = (a * b).coeffs
            seen[c] = seen.get(c, 0) + 1
    for k in range(8):
        np.unique(_TABLE[np.ix_(_TABLE[k, :24], _TABLE[k + 1, :24])])
    return len(seen)


def reference_burst() -> float:
    """Median time of back-to-back reference runs."""
    times = []
    for _ in range(BURST_REPEATS):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Reference timings at a fixed wall-clock interval while installed.

    ``spent`` is the total time the samples took, which callers subtract from
    the wall time of what they measure.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self.spent += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_between(self, start: float, end: float) -> float:
        """Mean reference time of the samples around [start, end]."""
        lo = bisect.bisect_left(self.at, start - PAD_S)
        hi = bisect.bisect_right(self.at, end + PAD_S)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return statistics.fmean(self.took[lo:hi]) if lo < hi else reference_burst()


def scaled(wall_s: float, reference_s: float) -> float:
    """Wall time converted to the fixed reference speed."""
    return wall_s * REFERENCE_S / reference_s
