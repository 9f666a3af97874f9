"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of a core drifts: a fixed pure-Python loop can
take twice as long in one stretch of seconds as in the next, and CPU time
drifts with wall time, so neither clock alone tells a slower program from a
slower host.  The benchmark therefore times a fixed reference loop between
ops, one made of the same kind of work as the program's hot path (exact
rationals, tuple keys, dict lookups) but calling no ``menulearn`` code, and
scales each op's wall time by ``REFERENCE_S`` over the reference time
measured around it.  A reported time is thus the op's wall time at the host
speed at which the reference loop takes ``REFERENCE_S``; a change to the
program moves it, a change of host speed does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Nominal time of one reference loop, about its median on a 2 GHz Xeon
#: vCPU of a shared host.  Calibrated times read in seconds at that speed.
REFERENCE_S = 0.004
#: Reference loops per measurement; their median is the measurement.
REPS = 3


def reference_loop(n: int = 600) -> Fraction:
    """Fixed work: memoised rational arithmetic over tuple keys."""
    memo: dict = {}
    total = Fraction(0)
    for i in range(1, n):
        key = (i % 97, i % 31, "s%d" % (i % 7))
        value = memo.get(key)
        if value is None:
            value = Fraction(i % 11 + 1, i % 13 + 2)
            memo[key] = value
        total += value * Fraction(1, i % 5 + 1)
    return total


def measure() -> float:
    """Median wall time of ``REPS`` reference loops."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibrator:
    """Scales wall times by the reference loop timed before and after them.

    Call :meth:`scale` right after each timed interval; the measurement
    it takes then also serves as the "before" of the next interval.
    """

    def __init__(self) -> None:
        self.last = measure()

    def scale(self, elapsed: float) -> float:
        after = measure()
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return elapsed * factor
