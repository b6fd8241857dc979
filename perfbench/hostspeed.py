"""The host's speed during a run, from a fixed calibration kernel.

The benchmark runs on shared hosts whose speed drifts by a quarter or
more over minutes, while nothing in the program changes. A run therefore
times, between its operations, a fixed kernel that is not qgeom code:
an interpreter loop, a numpy FFT and a memory copy, about equal parts.
`speed()` is the median time of that kernel over the run divided by
REFERENCE_S, its time on the reference host, so that a time measured in
the run and divided by it reads as seconds on the reference host. The
program's own code never runs during a calibration sample, so a change
to the program moves the operations' times and not the kernel's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference host: Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.
REFERENCE_S = 0.0195
PERIOD_S = 0.25          # one sample per this much run time, taken between operations
MAX_BURST = 80           # samples taken at once after a long operation


class HostSpeed:
    """Calibration samples spread over a run; call catch_up() between operations."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal(1 << 16)
        self._src = rng.standard_normal(1 << 20)
        self._dst = np.empty_like(self._src)
        self.samples: list[float] = []
        self._kernel()                      # first touch of the arrays, untimed
        self._last = time.perf_counter()

    def _kernel(self) -> None:
        total = 0
        for k in range(100_000):
            total += k * k
        for _ in range(10):
            np.fft.rfft(self._signal)
        for _ in range(4):
            np.copyto(self._dst, self._src)

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def catch_up(self) -> None:
        """One sample per PERIOD_S of run time since the last catch-up."""
        due = min(int((time.perf_counter() - self._last) / PERIOD_S), MAX_BURST)
        for _ in range(due):
            self.sample()
        if due:
            self._last = time.perf_counter()

    def speed(self) -> float:
        """Median kernel time over REFERENCE_S: above 1 on a host slower than the reference."""
        return statistics.median(self.samples) / REFERENCE_S
