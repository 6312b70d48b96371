"""How fast the machine runs Python right now, measured inside the worker.

Other tenants of a small shared machine slow every process on it, the
wall and process clocks alike, by up to 1.8x for bursts of a fraction
of a second to minutes.  A `SpeedProbe` times a fixed pure-Python loop
(`_probe`, standard library only, so no change to the program moves it)
from a SIGALRM handler every INTERVAL_S of wall time.  An op's time is
then rescaled to the machine speed at which the probe takes REF_S:

    op_s = raw_op_s * REF_S / mean(probe durations around the op)

so a slow phase of the machine lengthens the probe and the op alike and
cancels out, while a slower program still reads slower.  The handler's
own time is taken off the op's raw time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Duration of one probe on the machine the benchmark was built on (Intel
# Xeon, 2 cores, Python 3.11.7) at its usual load.
REF_S = 1.5e-3
# Probes within at least this much wall time around an op set its speed.
MIN_WINDOW_S = 0.4
MIN_PROBES = 8
TRIM = 0.1


def _probe():
    """Small-object arithmetic and allocation, like the program's own
    ideal and algebra arithmetic: of the loops tried, the one whose time
    tracks the program's best under other tenants' load."""
    acc = []
    for i in range(1, 300):
        acc.append(Fraction(i * 7919 % 1009, i) + Fraction(1, i + 1))
    return acc


class SpeedProbe:
    """Probe timings of one process, and the handler time they cost."""

    def __init__(self):
        self.at: list[float] = []       # perf_counter() at each probe start
        self.took: list[float] = []     # its duration
        self.handler_s = 0.0            # total time spent in the handler

    def _handler(self, signum, frame):
        perf = time.perf_counter
        t0 = perf()
        collecting = gc.isenabled()
        gc.disable()
        p0 = perf()
        _probe()
        p1 = perf()
        if collecting:
            gc.enable()
        self.at.append(p0)
        self.took.append(p1 - p0)
        self.handler_s += perf() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Trimmed mean probe duration around [t0, t1], over REF_S."""
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        while True:
            i = bisect.bisect_left(self.at, t0 - pad)
            j = bisect.bisect_right(self.at, t1 + pad)
            if j - i >= MIN_PROBES or (i == 0 and j == len(self.at)):
                break
            pad = 2 * pad + INTERVAL_S
        window = sorted(self.took[i:j])
        if not window:
            return 1.0
        k = int(len(window) * TRIM)
        kept = window[k:len(window) - k]
        return sum(kept) / len(kept) / REF_S
