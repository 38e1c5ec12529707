"""Machine-speed reference for the benchmark's timings.

Other tenants of a shared host can slow this process by up to 2x, in
swings that last from a fraction of a second to minutes, which no number
of repeats within one run averages out.  So the benchmark times a fixed
loop that does not touch the package, often and at regular moments while
the work runs, and scales the work's times by
``REFERENCE_S / (the loop's mean time over the same stretch)``.  On that
host the ratio of workload time to loop time stayed within a few percent
while raw times doubled.  The scaled figures read as times on a machine
where the loop takes REFERENCE_S; raw figures are reported alongside them.

The loop runs from a timer signal (``Probe``), so that it samples the
machine's speed in the middle of long calls too: a single batch-verify call
lasts about a second, and a loop timed only before and after it misses the
swings inside it.  The handler runs between two bytecodes of the main
thread and does not touch the package's state; the time spent in it is
kept apart (``Probe.clock``) and never counted as the work's.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

#: the loop's time on an unloaded core of the machine this was tuned on
#: (2 GHz x86-64, CPython 3.11, numpy 2.4); only sets the scale
REFERENCE_S = 2.5e-3


def _loop() -> float:
    # scalar float arithmetic as in the solver and oracle kernels, then
    # small-array numpy calls as in geometry and properties, at about the
    # 4:1 time split of the workloads: under load the two slow down by
    # different factors, and the loop should slow down as the work does
    s, x = 0.0, 0.3
    for _ in range(8000):
        dx, dy, dz = x - 0.5, 0.45, -0.125
        s += 1.0 / math.sqrt(dx * dx + dy * dy + dz * dz)
        x = 0.5 + 0.5 * (x * 0.9 + 0.01)
    a = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _ in range(20):
        n = np.linalg.norm(a - a[1], axis=1)
        s += float(np.linalg.det(a[1:] - a[0]))
        a = a + 1e-9 * n[:, None]
    return s


def reference_time() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class Probe:
    """Times the reference loop every ``period`` seconds of wall time while
    active (``with probe:``)."""

    def __init__(self, period: float):
        self.period = period
        #: every reference time taken so far, in order
        self.refs: list[float] = []
        #: wall time spent in the probe, to be left out of the work's times
        self.spent = 0.0
        self._sampling = False

    def clock(self) -> float:
        """perf_counter without the time spent probing."""
        return time.perf_counter() - self.spent

    def sample(self, *_) -> None:
        if self._sampling:  # a signal that came during the loop itself
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.refs.append(reference_time())
        self.spent += time.perf_counter() - t0
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
