"""Reference clock: rescale measured wall time to nominal machine speed.

The speed of a shared machine drifts by a quarter within tens of seconds, and
the same work slows with it, so raw wall times of one workload spread too far
to resolve a change.  While a region is timed, a SIGALRM handler runs a short
fixed burst of exact rational arithmetic, the kind of work the program does,
every `interval` seconds in the same thread.  Each burst's duration samples
the machine's speed at that moment; the region's wall time, less the time the
bursts took, is rescaled by REF_NOMINAL_S / (trimmed mean burst duration).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# The burst's typical duration on the machine the benchmark was defined on;
# any fixed value works, it only sets the unit of the rescaled times.
REF_NOMINAL_S = 0.0005

_A = tuple(Fraction(7 * i - 40, 3 + (5 * i) % 23) for i in range(12))
_B = tuple(Fraction(11 * i - 31, 2 + (7 * i) % 19) for i in range(12))


def burst() -> float:
    """One fixed truncated product of rational series; returns its duration.

    The cyclic garbage collector is held off during the burst: a collection
    that the burst's allocations happen to trigger walks the program's whole
    heap, which is the program's cost, not a sample of the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = [Fraction(0)] * 12
        for i, a in enumerate(_A):
            for j in range(12 - i):
                out[i + j] += a * _B[j]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Context manager that samples burst durations while a region runs."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.inside: list[float] = []  # bursts run by the timer, inside the region
        self.edges: list[float] = []  # bursts at entry and exit, outside it
        self._old = None

    def _tick(self, signum, frame) -> None:
        self.inside.append(burst())

    def __enter__(self) -> "RefClock":
        burst()  # warm the burst's code and constants
        self.edges.append(burst())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.edges.append(burst())

    @property
    def samples(self) -> int:
        return len(self.inside) + len(self.edges)

    def normalize(self, wall: float) -> float:
        """`wall`, measured inside the region, at nominal machine speed.

        The speed sample is the mean burst without the slowest and fastest
        5 %: a burst that the OS preempts takes many times its length, and
        one such burst would skew the plain mean.
        """
        bursts = sorted(self.inside + self.edges)
        trim = max(1, len(bursts) // 20) if len(bursts) > 2 else 0
        typical = statistics.fmean(bursts[trim : len(bursts) - trim])
        return (wall - sum(self.inside)) * REF_NOMINAL_S / typical
