"""Samples the machine's speed while the benchmark runs.

On a shared 2-core machine the speed of one core swings by up to 1.8x
within seconds and drifts over minutes, and the two cores do not move
together, so raw wall times of runs made minutes apart differ by more than
any useful regression bound.  ``SpeedSampler`` times a small fixed kernel
from a SIGALRM handler every ``INTERVAL_S`` seconds, on the same thread as
the work it measures, so the samples fall inside every operation.  A wall
time is then rescaled by ``NOMINAL_S / (mean kernel time during it)``: the
time it would have taken with the kernel running at its nominal speed.

The kernel is a Python loop that indexes arrays and does complex
arithmetic (like the RK4 loops) followed by FFTs and elementwise work on
2048-point arrays (like a grid step).  Over 5-second windows its time
tracks a two-level propagation and a grid run to within about 5%
(quartile distance over median), where a tight loop on scalars does not.
It belongs to the benchmark, so no change to socmorse moves it; it takes
about 1.5% of the run.
"""

import bisect
import signal
import time

import numpy as np

# Bound now, so the handler never triggers a lazy import: it can interrupt
# the main thread inside an import of numpy.fft.
_fft, _ifft, _exp, _abs = np.fft.fft, np.fft.ifft, np.exp, np.abs

INTERVAL_S = 0.1
# The kernel time that defines the reference speed: a typical median on the
# 2-core machine where the benchmark was defined.
NOMINAL_S = 1.55e-3

_A = np.linspace(0.99, 1.0, 1000) + 1e-4j
_B = np.linspace(0.0, 1e-6, 1000) + 0j
_FIELD = np.exp(1j * np.linspace(0.0, 7.0, 2048))


def _kernel():
    z = 1.0 + 0.0j
    for j in range(1000):
        z = z * _A[j] + _B[j]
    for _ in range(6):
        y = _ifft(_fft(_FIELD) * _FIELD)
        y = _exp(-0.01j * _abs(y)) * y
    return z


class SpeedSampler:
    """Kernel timings taken at a fixed rate; use as a context manager."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # A default disposition would let a last, late SIGALRM end the process.
        keep = self._previous not in (None, signal.SIG_DFL)
        signal.signal(signal.SIGALRM, self._previous if keep else signal.SIG_IGN)

    def factor(self, intervals, min_samples=1):
        """NOMINAL_S over the mean kernel time of the samples taken inside
        the given intervals, or None with fewer than ``min_samples``."""
        picked = []
        for a, b in intervals:  # sample times only grow
            picked += self.durations[bisect.bisect_left(self.times, a):
                                     bisect.bisect_left(self.times, b)]
        if len(picked) < min_samples:
            return None
        return NOMINAL_S * len(picked) / sum(picked)

    def normalised(self, seconds, intervals):
        """``seconds`` rescaled to the kernel's nominal speed."""
        factor = self.factor(intervals)
        if factor is None:
            raise RuntimeError("no speed sample inside the measured intervals")
        return seconds * factor
