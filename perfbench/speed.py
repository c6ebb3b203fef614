"""Machine-speed reference: rescales measured times to a fixed speed.

The benchmark shares a few cores of a host with other jobs, and the speed
it gets drifts by up to a factor of two within a minute, with no stolen
time to show for it (the slowdown comes from the neighbours on the same
cores, so process CPU time drifts just as much as wall time).  So a timer
interrupts the timed loop every INTERVAL_S and runs a fixed reference
kernel, which does not touch ``nufunc``, and each operation's wall time is
rescaled by how fast the kernel ran around it:

    scaled = (wall - kernel time inside it) * mean(REF_NOMINAL_S / kernel time)

over the kernel calls within NEAR_S of the operation.  The mean of the
speed factors, not their median, is the work-weighted rescaling: it is the
one that stays level when the machine's speed moves in steps.  A scaled
time reads as milliseconds (or seconds) on this machine at its fastest.  A
change that makes ``nufunc`` slower still reads slower, because the kernel
runs none of its code.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# Time of one kernel() call when a 2-vCPU Intel Xeon guest runs at its
# fastest (the 5th percentile of 24,000 calls over 20 s; the median was
# 0.80 ms).  It fixes the unit of scaled times: changing it rescales every
# figure.
REF_NOMINAL_S = 0.55e-3

# Wall time between two kernel calls during the timed loop.
INTERVAL_S = 0.01

# Kernel calls within this many seconds of an operation give its speed.
NEAR_S = 0.1

_X = np.linspace(0.1, 5.0, 256)


def kernel() -> float:
    """Fixed work in the interpreter-plus-small-arrays mix ``nufunc`` has:
    a scalar Python loop, then short numpy vector expressions."""
    acc = 0.0
    for k in range(1, 2000):
        acc += math.log(k) * 0.5 - acc * 1e-4
    y = _X
    for _ in range(80):
        y = np.exp(-y) * np.log1p(y) + np.sqrt(y)
    return acc + float(y.sum())


class SpeedReference:
    """Kernel calls in time order, and the scaled times they give."""

    def __init__(self):
        self.mid = []  # perf_counter midpoints of the kernel calls
        self.dur = []  # their durations, s
        self._busy = False

    def _call(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.mid.append(0.5 * (t0 + t1))
        self.dur.append(t1 - t0)

    def sample(self, seconds: float) -> None:
        """Run the kernel until `seconds` have passed (at least once)."""
        t_end = time.perf_counter() + seconds
        while True:
            self._call()
            if self.mid[-1] >= t_end:
                return

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late tick must not nest inside a call
            self._busy = True
            try:
                self._call()
            finally:
                self._busy = False

    def start(self) -> None:
        """Run the kernel every INTERVAL_S, between the caller's bytecodes."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float, near: float = NEAR_S) -> float:
        """The span [t0, t1], less the kernel calls inside it, at the
        reference speed given by the kernel calls within `near` of it."""
        lo = bisect.bisect_left(self.mid, t0 - near)
        hi = bisect.bisect_right(self.mid, t1 + near)
        if hi - lo < 5:  # a long gap: take the nearest calls instead
            i = bisect.bisect_left(self.mid, t1)
            lo, hi = max(0, i - 3), min(len(self.mid), i + 3)
        factor = statistics.fmean(REF_NOMINAL_S / d for d in self.dur[lo:hi])
        inside = math.fsum(self.dur[bisect.bisect_left(self.mid, t0):bisect.bisect_right(self.mid, t1)])
        return (t1 - t0 - inside) * factor
