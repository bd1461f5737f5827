"""Machine-speed calibration.

On a shared virtual machine the speed of a vCPU changes by itself, by up to
a factor of two within seconds, with the process running all the time: the
host shares the core.  A fixed pure-Python kernel (Fraction arithmetic, a
dict with tuple keys, a sort, like the package's own work) is timed in short
probes, between operations and, every ``PERIOD_S`` of this process's CPU
time, inside them.  Each stretch of an operation between two probes is
scaled by the kernel's mean speed at its two ends, and the probes' own time
is left out.  A time so scaled reads what the operation would take at the
reference speed; changes to the package move it, changes in the host's load
mostly do not.

The benchmark pins itself (and so its child processes) to one CPU, so the
kernel measures the CPU the work runs on.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# Seconds one kernel() call takes at the reference speed: about its median
# on a shared 2-vCPU Intel Xeon (2.0 GHz) virtual machine, Python 3.11.7.
REFERENCE_S = 0.0005
CALLS_PER_PROBE = 5
PERIOD_S = 0.1


def pin_to_one_cpu():
    """Run this process, and the processes it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def kernel():
    total = Fraction(0)
    table = {}
    for i in range(1, 60):
        q = Fraction(i, 7 * i + 3)
        total += q * q - Fraction(1, i)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
    return total, sorted(table.items())


class Speed:
    """The probes of a run, in time order: their start, their end, and the
    reference time over the measured time (below 1 when the CPU is slow)."""

    def __init__(self):
        self.starts, self.ends, self.factors = [], [], []

    def probe(self):
        start = time.perf_counter()
        calls = []
        for _ in range(CALLS_PER_PROBE):
            t = time.perf_counter()
            kernel()
            calls.append(time.perf_counter() - t)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.factors.append(REFERENCE_S / statistics.median(calls))

    def maybe_probe(self):
        """Probe unless the last probe ended less than ``PERIOD_S`` ago."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= PERIOD_S:
            self.probe()

    @contextmanager
    def inside(self):
        """Probe every ``PERIOD_S`` of this process's CPU time within the block.

        The timer counts this process's user time only, so it does not fire
        while the process waits on a child."""

        def tick(signum, frame):
            self.probe()

        previous = signal.signal(signal.SIGVTALRM, tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    def scale(self, start: float, end: float):
        """(wall seconds, seconds at the reference speed) of [start, end],
        leaving out the probes within it.  Needs a probe ending at or before
        ``start`` and one starting at or after ``end``."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        wall = scaled = 0.0
        t, f = start, self.factors[before]
        for i in range(before + 1, after + 1):
            edge = min(self.starts[i], end)
            wall += edge - t
            scaled += (edge - t) * (f + self.factors[i]) / 2
            t, f = self.ends[i], self.factors[i]
        return wall, scaled

    def mean(self) -> float:
        return statistics.fmean(self.factors)
