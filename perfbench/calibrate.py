"""A fixed calibration microkernel, and the run's speed factor.

Two kernels: a pure-python integer loop (interpreter speed, which
bounds the python engines) and a numpy sort + matrix product (native
speed, which bounds the array paths).  :func:`calibration` times each,
the median of five repeats, once per run; it is reported and never
gated, so numbers taken on different machines can be normalized.

The host the benchmark runs on is shared, and its speed drifts by a
third over minutes.  :class:`SpeedGauge` therefore also times a short
run of the python kernel between the timed calls of a run; the median
of those samples over :data:`REFERENCE_SAMPLE_S` is the run's speed
factor, and end-to-end times are divided by it (see ``README.md``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Loop length of one speed sample.
SAMPLE_ITERATIONS = 60_000
#: One speed sample's seconds on the reference machine (a 2-vCPU 2.1 GHz
#: x86-64 container, where the benchmark's bounds were set).
REFERENCE_SAMPLE_S = 0.0075


def _python_kernel(iterations: int = 300_000) -> int:
    total = 0
    for i in range(iterations):
        total = (total + i * i) % 1_000_003
    return total


def _numpy_kernel(vector: np.ndarray, matrix: np.ndarray) -> float:
    return float(np.sort(vector)[1000] + (matrix @ matrix).trace())


def _median_seconds(kernel, *args, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def calibration() -> dict[str, float]:
    """``{"calib.python_s": ..., "calib.numpy_s": ...}``."""
    rng = np.random.default_rng(12345)
    vector, matrix = rng.random(400_000), rng.random((200, 200))
    return {
        "calib.python_s": _median_seconds(_python_kernel),
        "calib.numpy_s": _median_seconds(_numpy_kernel, vector, matrix),
    }


class SpeedGauge:
    """Speed samples taken between a run's timed calls."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _python_kernel(SAMPLE_ITERATIONS)
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """How many times slower than the reference machine this run ran."""
        return statistics.median(self.samples) / REFERENCE_SAMPLE_S
