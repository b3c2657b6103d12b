"""Scaling measured times to a nominal host speed.

On a shared VM the host runs this process's vCPU at a speed that changes
both within a second and over minutes; CPU time tracks wall time, so the
guest cannot see it as steal.  While the benchmark runs, a timer signal
times a fixed reference pass every SAMPLE_EVERY_S, in the main thread and
so also in the middle of a long op.  An op's time is its wall time minus
the time spent in those passes, multiplied by

    REFERENCE_PASS_S / (mean reference pass time during the op)

(for an op too short to hold a pass, the mean of the passes just before and
just after it).  That is the op's time on a host where one pass takes
REFERENCE_PASS_S.  The pass uses only the standard library and numpy, so no
change to bracketkit moves it: it moves only with the host.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# One reference pass on the nominal host (a fast phase of a 2-core VM).
REFERENCE_PASS_S = 0.0025
SAMPLE_EVERY_S = 0.1
_MASK = (1 << 256) - 1


def reference_pass():
    """The kinds of work bracketkit's time goes to: 256-bit integer bit
    operations, set inserts, Fraction sums and small numpy word kernels."""
    state = 0x9E3779B97F4A7C15
    seen = set()
    bits = 0
    acc = Fraction(0)
    words = np.arange(256, dtype=np.uint64).reshape(64, 4)
    for i in range(3000):
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK
        mask = state ^ (state >> 17)
        seen.add(mask & (mask - 1))
        bits += mask.bit_count()
        if i % 30 == 0:
            acc += Fraction(i + 1, 7 + i % 13)
        if i % 60 == 0:
            bits += int(np.bitwise_count(words ^ np.uint64(i)).sum())
    return bits, acc, len(seen)


class HostClock:
    """Context manager that samples the host's speed on a timer signal."""

    def __init__(self):
        self.ends = []    # when each pass ended
        self.passes = []  # how long each pass took
        self.spent = 0.0  # total time inside the signal handler
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_pass()
        end = time.perf_counter()
        self.ends.append(end)
        self.passes.append(end - start)
        self._busy = False
        self.spent += time.perf_counter() - start

    def scaled(self, start, end, sampling):
        """Nominal-host time of an op that ran from ``start`` to ``end`` and
        spent ``sampling`` of that inside the handler."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.passes[lo:hi] or self.passes[max(lo - 1, 0):lo + 1]
        return (end - start - sampling) * REFERENCE_PASS_S / statistics.fmean(inside)
