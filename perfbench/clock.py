"""Times scaled by the host's speed, measured beside the work.

The benchmark host is shared, and its speed moves under the workloads: the
same 25 episodes take anywhere from 5 to 12 ms each within one minute, and
run medians drift by 20-60% between sets made minutes apart (README).  A bare
wall time therefore reports the neighbours as much as the package.

`SpeedClock` times a block and samples the host's speed beside it: it runs
a fixed calibration kernel before and after the block and, at public-call
boundaries, between segments of the block, always outside the timing.  The
block's wall time, scaled by the median kernel time, is its time in
reference seconds: seconds on a host where the kernel takes `KERNEL_REF_S`.
The kernel is benchmark code and never changes with the package, so a change
to the package moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_REF_S = 0.010  # the reference host's kernel time; scaled times are in its seconds
SEGMENT_S = 0.1  # shortest segment between two kernel samples (~10 ms each, outside the timing)
END_SAMPLES = 5  # kernel samples before and after each block

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((8, 8)) / 4
_VEC = _RNG.standard_normal(8)
_BLOCK = _RNG.standard_normal((96, 96)) / 10


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now.  It mixes the
    workloads' kinds of work: one-row numpy calls, interpreted dict and loop
    work, and mid-sized matrix products."""
    t0 = time.perf_counter()
    x = _VEC
    for _ in range(1500):
        x = np.tanh(_SMALL @ x)
    table: dict[int, int] = {}
    for i in range(10000):
        table[i & 255] = table.get(i & 255, 0) + i
    for _ in range(60):
        _BLOCK @ _BLOCK
    return time.perf_counter() - t0


class SpeedClock:
    """Raw and scaled time of the block between `start` and `stop`.  With
    `sample` off it runs no kernel and the scaled time is the raw time."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.kernels: list[float] = []  # kernel times sampled over the last block
        self._t0 = None

    def start(self) -> None:
        self.kernels = [kernel_s() for _ in range(END_SAMPLES * self.sample)]
        self._raw = 0.0
        self._t0 = time.perf_counter()

    def boundary(self) -> None:
        """A public call starts or ends: sample the kernel if the segment is long enough."""
        if self.sample and self._t0 is not None and time.perf_counter() - self._t0 >= SEGMENT_S:
            self._raw += time.perf_counter() - self._t0
            self.kernels.append(kernel_s())
            self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the block; returns (raw seconds, reference seconds)."""
        self._raw += time.perf_counter() - self._t0
        self._t0 = None
        if not self.sample:
            return self._raw, self._raw
        self.kernels += [kernel_s() for _ in range(END_SAMPLES)]
        return self._raw, self._raw * KERNEL_REF_S / statistics.median(self.kernels)


def scaled_import(raw_s: float, kernels: list[float]) -> float:
    """An import time measured once, scaled by kernel runs made right after it."""
    return raw_s * KERNEL_REF_S / statistics.median(kernels)
