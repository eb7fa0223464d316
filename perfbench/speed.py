"""Timing on a shared machine: seconds scaled to the machine's quiet speed.

The machine the benchmark was built on is shared.  The same computation runs
up to twice as slow from one minute to the next, in spells of tens of
seconds, and not every kind of work slows down by the same factor.  Raw
seconds of one workload spread by 19 % to 31 % between the quartiles of ten
runs.

A SpeedProbe times a fixed reference kernel at the start and end of a timed
region and, on a timer signal, every INTERVAL_S inside it.  The kernel's own
time is taken out of the region's time, and the region's seconds are scaled
by (the kernel's time on the quiet machine) / (its mean time during the
region).  The kernels do not call khessian, so a change to the package moves
only the region's time.  The kernel mixes interpreted Python, numpy on
small and on large arrays, and a dense LAPACK solve, as the workloads do.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Time of one repetition of each kernel on the quiet machine (the 2-core Xeon
# of perfbench/README.md, one BLAS thread): the fastest of many repetitions.
NOMINAL_S = {"python": 1.96e-3, "numpy_small": 1.06e-3, "numpy_large": 7.2e-3,
             "lapack": 2.6e-3}
INTERVAL_S = 0.5

# Repetitions of each kernel per sample.  Over ten runs each, the even mix
# kept the quartile spread of the scaled pass time at 3-5 % on annulus_fold,
# banded_newton and grid_fields, but 13 % on identities, whose time goes to
# interpreted Python; the Python-heavy mix brings identities to about 6 %.
MIX = {"python": 2, "numpy_small": 2, "numpy_large": 2, "lapack": 2}
MIXES = {"identities": {"python": 8, "numpy_small": 2}}


class SpeedProbe:
    """Reference kernel timed alongside the workload, mix[kind] repetitions of each kind."""

    def __init__(self, mix: dict = MIX):
        self.kernels = [(getattr(self, "_" + kind), reps) for kind, reps in mix.items()]
        self.nominal = sum(NOMINAL_S[kind] * reps for kind, reps in mix.items())
        self.matrix = np.eye(200) * 200.0 + np.sin(np.arange(40000.0)).reshape(200, 200)
        self.small = np.linspace(0.0, 1.0, 100)
        self.large = np.linspace(0.0, 1.0, 1 << 20)
        self.samples = []
        self.kernel_s = 0.0
        self._busy = False

    def _python(self):
        table, acc = {}, 0.0
        for i in range(15000):
            table[i % 97] = i * 0.5
            acc += table.get(i % 89, 1.0) * 1.0001
        return acc

    def _numpy_small(self):
        return sum(float((np.exp(-self.small * i) * self.small).sum()) for i in range(300))

    def _numpy_large(self):
        return float(np.sqrt(self.large * self.large + 1.0).sum())

    def _lapack(self):
        return sum(float(np.linalg.solve(self.matrix, self.small.repeat(2))[0])
                   for _ in range(6))

    def sample(self, *_):
        """Time the kernel once (also the timer-signal handler)."""
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        for kernel, reps in self.kernels:
            for _ in range(reps):
                kernel()
        took = perf_counter() - start
        self.samples.append(took)
        self.kernel_s += took
        self._busy = False

    def scale(self) -> float:
        """Nominal kernel time over the mean of the samples taken since the last reset."""
        return self.nominal / statistics.mean(self.samples)

    def timed(self, fn, sample_inside: bool = True):
        """Run fn; return (its result, seconds, seconds scaled to the quiet machine).

        With sample_inside, the kernel also runs every INTERVAL_S while fn runs;
        a traced run turns that off so the kernel's time stays out of its spans.
        """
        self.samples = []
        self.sample()
        kernel_before = self.kernel_s
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            seconds = perf_counter() - start - (self.kernel_s - kernel_before)
            if sample_inside:
                signal.signal(signal.SIGALRM, previous)
        self.sample()
        return result, seconds, seconds * self.scale()
