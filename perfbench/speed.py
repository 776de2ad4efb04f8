"""Machine-speed calibration.

On a shared host the speed of one core drifts by up to 1.9x within
seconds, the same for wall and CPU time, which swamps the differences a
benchmark has to resolve.  A fixed kernel of exact arithmetic plus
argument parsing and JSON, timed right before and after a cheap CLI op,
tracked that drift: over windows of 40 ops the spread of the op's median
time fell from 44% to 2%.  So every time the benchmark reports is
converted to seconds at nominal speed:

    nominal = (measured - kernel time inside) * NOMINAL_S / mean kernel time

The mean is over the kernel samples within WINDOW_S of the measured
interval: the calibrations the runner takes between ops, and the samples a
SIGALRM handler takes every PERIOD_S in the main thread, which also cover
long ops.  The kernel's own time inside the interval is subtracted.
"""

import argparse
import bisect
import json
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.001  # kernel time on a quiet 2-vCPU host with Python 3.11.7
PERIOD_S = 0.05
WINDOW_S = 0.005


def kernel():
    """Fraction arithmetic and dict updates, like the engine's inner loops,
    then argument parsing and JSON, like the CLI's per-command work."""
    acc = {}
    for i in range(1, 120):
        s = Fraction(i, 7) * Fraction(3, i + 2) + Fraction(1, i % 11 + 1)
        acc[i % 64] = acc.get(i % 64, 0) + s.numerator % 13
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command").add_parser("run")
    sub.add_argument("file")
    sub.add_argument("--xi", default="0")
    args = parser.parse_args(["run", "x.json", "--xi=1,2"])
    return json.loads(json.dumps({"acc": acc, "args": vars(args)}))


class SpeedLog:
    """Samples the kernel while active (use as a context manager)."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each sample
        self.kernel_s = []  # its duration
        self._previous = None
        self._sampling = False

    def calibrate(self, signum=None, frame=None):
        """Take one kernel sample (also the SIGALRM handler, which skips
        its sample when it interrupts one)."""
        if self._sampling:
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            kernel()
            self.starts.append(start)
            self.kernel_s.append(time.perf_counter() - start)
        finally:
            self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def nominal(self, start, end):
        """Seconds at nominal speed for the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        inside = self.kernel_s[bisect.bisect_left(self.starts, start):
                               bisect.bisect_right(self.starts, end)]
        around = self.kernel_s[lo:hi]
        if not around:
            raise ValueError("no speed samples near the interval")
        busy = end - start - sum(inside)
        return busy * NOMINAL_S * len(around) / sum(around)
