"""Host speed, read from a fixed pure-Python loop timed between samples.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU VM
the same training call took anywhere from 0.33 to 0.60 s over ten-second
windows, with process CPU time tracking wall time, so the core itself ran
slower rather than the process waiting. A run of a minute mostly sits in one
such phase, so its medians move with the host, not the program. The loop
below does not depend on the program and slows with the host almost exactly
as the workloads do (its time against a training call's, over 10-s windows:
slope 1.0 in log scale, correlation 0.97).

``HostSpeed.mark`` times the loop; the benchmark marks before and after
every timed sample. ``HostSpeed.scaled`` turns a sample's wall time into
the time it would take on a host where the loop takes ``REFERENCE_S``: wall
time times ``REFERENCE_S`` over the mean loop time of the two marks around
the sample. A change to the program moves the scaled time as it moves the
wall time; a change in host speed moves both the sample and the marks around
it, and cancels.
"""

from bisect import bisect_left, bisect_right
from time import perf_counter

LOOP_ITERATIONS = 600_000
# the loop's median time on the host these figures were first taken on
# (2-vCPU VM, Python 3.11.7), over four minutes of marks
REFERENCE_S = 0.0389


def _loop():
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i & 7
    return s


class HostSpeed:
    """Loop times, in order, with the time each mark started."""

    def __init__(self):
        self.starts = []
        self.loops = []

    def mark(self):
        t0 = perf_counter()
        _loop()
        self.starts.append(t0)
        self.loops.append(perf_counter() - t0)

    def factor(self, start, end):
        """``REFERENCE_S`` over the mean loop time of the last mark before
        ``start`` and the first mark after ``end``."""
        around = [self.loops[i] for i in (bisect_right(self.starts, start) - 1,
                                          bisect_left(self.starts, end))
                  if 0 <= i < len(self.loops)]
        if not around:
            raise ValueError("no host-speed mark around the sample")
        return REFERENCE_S * len(around) / sum(around)

    def scaled(self, samples):
        """Wall times of ``(start, end)`` samples, in seconds at the
        reference speed."""
        return [(end - start) * self.factor(start, end)
                for start, end in samples]
