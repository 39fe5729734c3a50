"""Scale measured times to the machine's nominal speed.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to a factor of two over a few seconds: a
fixed 60 ms task took 58-120 ms in successive 2 s windows, the same in
process CPU time as in wall time, with no steal time recorded. A run's
median alone then moves by 20-30% from one run to the next.

A :class:`SpeedProbe` measures that drift while the benchmark runs. It
times a fixed calibration kernel that uses no basinwave code (NumPy
element-wise work, a LAPACK banded solve, and a pure-Python loop, the
three kinds of work the package does) and scales a measured interval by
``NOMINAL_S / kernel time near that interval``. On this benchmark's
reference machine the ratio of program time to kernel time held within
about 2% across 30 s windows whose raw times differed by 30%.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

#: Kernel time, in seconds, at the reference machine's nominal speed (a
#: 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, taken as
#: the fast 10th percentile over 60 s). Scaled times are in seconds at that
#: speed.
NOMINAL_S = 0.0075

#: Probe period while a call runs; each tick costs one kernel run.
PERIOD_S = 0.25

#: Kernel samples used when no sample falls inside an interval.
NEAREST = 4

_N = 1056
_X = np.linspace(0.0, 1.0, _N)
_AB = np.empty((4, _N))
_AB[:] = [[0.1], [0.2], [4.0], [0.3]]
_RHS = np.ones(_N)


def kernel() -> float:
    """Fixed work of about NOMINAL_S seconds; returns a value to keep it live."""
    acc = 0.0
    for i in range(55):
        y = np.exp(7.0 * np.log(0.5 * (_X[:-1] + _X[1:]) + 0.5 + 1e-3 * i))
        acc += float(solve_banded((1, 2), _AB, _RHS)[i] + y[i])
    s = 0
    for i in range(11000):
        s += i * i % 7
    return acc + s


class SpeedProbe:
    """Kernel timings taken during a run, and the scaling they imply.

    ``sample()`` times the kernel now. Inside ``with probe.ticking():`` an
    interval timer also times it every PERIOD_S seconds, so that samples
    fall inside long calls; a tick runs between two Python bytecodes of the
    call it interrupts, and :meth:`scaled` removes its time again.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def sample(self, count: int = 1) -> None:
        # a tick arriving while a sample runs is dropped, keeping samples
        # disjoint and in time order
        if self._busy:
            return
        self._busy = True
        try:
            for _ in range(count):
                start = time.perf_counter()
                kernel()
                self.starts.append(start)
                self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would have taken at nominal speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1, lo=lo)
        inside = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        if inside:
            reference = statistics.median(inside)
        else:
            middle = 0.5 * (t0 + t1)
            nearest = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - middle))
            reference = statistics.median(
                self.ends[i] - self.starts[i] for i in nearest[:NEAREST]
            )
        return (t1 - t0 - sum(inside)) * NOMINAL_S / reference

