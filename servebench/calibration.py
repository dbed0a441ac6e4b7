"""Host-speed calibration for the benchmark's wall-clock metrics.

The benchmark shares a small host with other tenants, and that host's
speed drifts in episodes of tens of seconds: a fixed warm-serve loop runs
anywhere from 18 to 28 requests per second in 2-s windows, and CPU time
tracks wall time, so counting CPU time does not help.  A fixed kernel of
pure Python and NumPy work -- independent of the program under test --
slows down with the same episodes (correlation 0.86-0.96 against the
serve loop in 2-s windows).  The workloads time this kernel about
every 0.4 s of measured work, outside the timed requests, and each
wall-clock time is scaled by ``REFERENCE_SECONDS / kernel time`` around
the moment it was measured: the figure the run would have shown on the
host at its reference speed.  The raw figures are printed beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The kernel's median time on an idle two-core host (Python 3.11,
# NumPy 2.4); scaled metrics read in that host's seconds.
REFERENCE_SECONDS = 0.0062


def kernel() -> None:
    """Fixed work resembling a serve: dict updates and int16 row scans."""
    counts: dict[int, int] = {}
    for i in range(12000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
    rng = np.random.default_rng(7)
    dist = rng.integers(-1, 16, size=(300, 2000), dtype=np.int16)
    member = (dist >= 0) & (dist <= 10)
    np.packbits(member, axis=1, bitorder="little")
    ecc = np.where(member, dist, 0).max(axis=1)
    [int(x) for x in ecc]


class Calibrator:
    """Times :func:`kernel` at most once per ``every`` seconds.

    :meth:`factor_at` turns a moment of the run into a scale factor from
    the samples around it, so a request is scaled by the host's speed
    while it was served, not by the run's average speed.
    """

    def __init__(self, every: float = 0.4, neighbours: int = 2) -> None:
        self.every = every
        self.neighbours = neighbours
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns the seconds this call took."""
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.times.append(ended)
        self.samples.append(ended - started)
        return ended - started

    def maybe(self) -> float:
        """Sample if ``every`` seconds passed; returns the seconds spent."""
        if self.times and time.perf_counter() - self.times[-1] < self.every:
            return 0.0
        return self.sample()

    def factor_at(self, when: float) -> float:
        """Multiply a time measured at ``when`` by this for reference seconds.

        Uses the median of the ``neighbours`` samples on either side.
        """
        index = bisect.bisect_left(self.times, when)
        lo = max(0, index - self.neighbours)
        window = self.samples[lo : index + self.neighbours]
        return REFERENCE_SECONDS / statistics.median(window)
