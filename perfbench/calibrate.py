"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by a factor of
two within minutes, while the work of a run stays the same.  A fixed
kernel (float parsing, an interpreter loop and NumPy sorts: the kinds of
work ``tailsum`` does) is timed between operations, and every operation
time is rescaled to the speed at which the kernel takes ``REFERENCE_S``:

    reported = wall * REFERENCE_S / kernel time around the operation

A speed sample is the mean of ``REPEATS`` kernel runs; on a 2-CPU shared
Intel Xeon machine the mean tracked the operation times more closely than
the minimum did.  The kernel is benchmark code, so no change to
``tailsum`` can move it.
"""

import bisect
from time import perf_counter

import numpy as np

# a fixed kernel time, close to the kernel's time on a 2-CPU Intel Xeon machine
REFERENCE_S = 0.004
REPEATS = 16
# least time between two speed samples
INTERVAL_S = 1.0


class Calibrator:
    def __init__(self):
        array = np.random.default_rng(0).random(100_000)
        self._array = array
        self._small = array[:10_000].copy()
        self._text = [repr(x) for x in array[:5_000].tolist()]
        self._times = []  # when each sample was taken
        self._speeds = []  # kernel seconds of each sample

    def _kernel(self):
        start = perf_counter()
        acc = 0.0
        for token in self._text:
            acc += float(token)
        total = 0
        for i in range(20_000):
            total += i * i % 7
        for _ in range(4):
            np.sort(self._small)
        np.sort(self._array)
        return perf_counter() - start

    def sample(self, force=False):
        """Time the kernel unless a sample was taken less than ``INTERVAL_S`` ago."""
        now = perf_counter()
        if force or not self._times or now - self._times[-1] >= INTERVAL_S:
            speed = sum(self._kernel() for _ in range(REPEATS)) / REPEATS
            self._times.append(perf_counter())
            self._speeds.append(speed)

    def scale(self, start, end):
        """Factor taking a wall time spent in [start, end] to reference speed:
        the mean kernel time of the last sample before ``start`` and the
        first after ``end``."""
        before = bisect.bisect_right(self._times, start) - 1
        after = bisect.bisect_left(self._times, end)
        before = max(before, 0)
        after = min(after, len(self._times) - 1)
        return REFERENCE_S / ((self._speeds[before] + self._speeds[after]) / 2.0)

    def median_kernel_s(self):
        return float(np.median(self._speeds))
