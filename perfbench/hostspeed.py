"""How fast the host runs right now, sampled inside the measured process.

On the shared 2-CPU host this benchmark was built on, the same code runs up
to twice as fast or slow from one second to the next, and a 20-second
average drifts by 10-20 % between runs.  Wall and CPU time agree, so the
drift is in the host, and medians of repeats do not remove it.  What does is
timing a fixed kernel, free of fockgauge code, in between the measured work
in the same process: with the kernel run every 50 ms from a timer signal, a
pass time divided by the mean kernel time during that pass varies 3-5 % from
pass to pass where the raw pass time varies 13-18 %.  Each request is scaled
by the kernel runs around it, since the host speed changes within a pass.

The kernel's own time is taken out of every measured interval through
`HostSampler.clock`.  Since it runs inside a signal handler, the kernel must
not import anything: an import there can re-enter one that the interrupted
code has in progress (numpy loads `numpy.random` lazily), so everything it
uses is imported here.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np
from numpy.linalg import eigvalsh
from numpy.random import default_rng

KERNEL_ITERATIONS = 160  # about 2 ms on the host above
REFERENCE_S = 0.002  # kernel time that scaled times refer to
PERIOD_S = 0.05
WINDOW_S = 0.25  # kernel runs this close to an interval describe the host during it


def host_kernel() -> int:
    """Fixed work like the workloads': interpreter loops, small numpy calls,
    a small eigvalsh and float formatting."""
    rng = default_rng(12345)
    m = rng.standard_normal((48, 48))
    m = m + m.T
    acc = 0.0
    parts = []
    for i in range(KERNEL_ITERATIONS):
        v = rng.standard_normal(34) + 1j * rng.standard_normal(34)
        acc += float(np.vdot(v, v).real)
        parts.append(format(acc / (i + 1), ".17g"))
        if i % 40 == 0:
            acc += float(eigvalsh(m)[0])
    return len(",".join(parts))


def kernel_seconds(repeats: int) -> list:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        host_kernel()
        times.append(perf_counter() - start)
    return times


def scale(kernel_times: list) -> float:
    """Factor that brings a time measured alongside these kernel times to reference speed."""
    return REFERENCE_S / statistics.fmean(kernel_times)


class HostSampler:
    """Runs the kernel from SIGALRM every PERIOD_S while active (`with sampler:`)."""

    def __init__(self) -> None:
        self.stamps: list = []  # clock() when each kernel run ended
        self.seconds: list = []  # how long it took
        self.stolen = 0.0  # seconds spent in the kernel so far

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        host_kernel()
        end = perf_counter()
        self.stolen += end - start
        self.seconds.append(end - start)
        self.stamps.append(end - self.stolen)

    def clock(self) -> float:
        """perf_counter without the time spent in the kernel."""
        while True:
            stolen = self.stolen
            now = perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def scale(self, begin: float, end: float) -> float:
        """Scale factor for work done between clock() readings `begin` and `end`.

        Uses the kernel runs within WINDOW_S of the interval, so that a short
        request gets the host speed of its own moment, not of its pass.
        """
        lo = bisect.bisect_left(self.stamps, begin - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if lo == hi:  # no kernel run that close: take the nearest one
            lo = min(lo, len(self.stamps) - 1)
            hi = lo + 1
        return scale(self.seconds[lo:hi])

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
