"""Machine-speed probe, so that times from a shared machine compare.

On the machine the baseline comes from, the CPUs are shared with other
tenants and their speed changes by up to about 1.8x from one second to
the next.  There, the median raw pass time of a 20-s run moved 4-24%
(interquartile distance over median, ten or five seeds) on unchanged
code, and the mean, median or low quantile of a fixed loop's times over
20-s windows 16-24%: no statistic of raw times was steady enough.

A probe times a fixed calibration loop every ``interval_s`` while the
timed work runs, from a SIGALRM handler in the same thread.  A sample
that takes twice the loop's reference time means the machine ran at half
the reference speed.  ``scale()`` is the reference time over the mean
sample, and a wall time times that scale is the time the same work takes
at the reference speed.  The handler's own time is counted in ``busy``
so that callers can take it out of what they timed.

Two loops: ``numpy_probe`` (inversions of a 24 x 24 matrix, the size of
the desk tracker's state) for the CLI calls, which spend their time in
small numpy calls; ``python_probe`` (integer arithmetic, no imports) for
the set-up processes, which spend theirs importing modules and must not
load numpy before they are timed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# reference time of one sample of each loop: about its median while the
# timed work runs, on the machine the baseline comes from (2 shared
# vCPUs under KVM, numpy on OpenBLAS with one thread), so that a scaled
# time there reads about as a typical raw one
NUMPY_REF_S = 1.3e-3
PYTHON_REF_S = 1.4e-4


class SpeedProbe:
    def __init__(self, calibrate, ref_s: float, interval_s: float) -> None:
        self._calibrate = calibrate
        self.ref_s = ref_s
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.busy = 0.0
        self._old = None

    def sample(self) -> None:
        """Time one calibration loop and record it."""
        t0 = perf_counter()
        self._calibrate()
        self.samples.append(perf_counter() - t0)
        self.busy += perf_counter() - t0

    def _tick(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> SpeedProbe:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, since: int = 0) -> float:
        """Reference speed over the machine's mean speed in samples[since:]."""
        return self.ref_s / statistics.fmean(self.samples[since:])


def numpy_probe() -> SpeedProbe:
    """Probe for the CLI calls: 40 inversions of a 24 x 24 SPD matrix."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 24))
    a = a @ a.T + 24 * np.eye(24)

    def calibrate():
        for _ in range(40):
            np.linalg.inv(a)

    return SpeedProbe(calibrate, NUMPY_REF_S, interval_s=0.1)


def python_probe() -> SpeedProbe:
    """Probe for a set-up process: a pure-Python loop, sampled every 10 ms."""
    def calibrate():
        s = 0
        for i in range(2000):
            s += i * i
        return s

    return SpeedProbe(calibrate, PYTHON_REF_S, interval_s=0.01)
