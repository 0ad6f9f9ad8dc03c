"""Host-speed calibration for the end-to-end metrics.

The shared host this benchmark runs on changes speed by tens of per cent
from minute to minute (CPU frequency and neighbours), so two runs of the
same code a few minutes apart can differ by more than a regression
would.  A fixed kernel that belongs to the benchmark -- heap, dict and
integer work in the interpreter, then a numpy pass -- is timed at round
boundaries throughout a run; their trimmed mean against ``REFERENCE_S``
gives the run's host speed.  A mean, not a median: on a host that
alternates between two speeds every few seconds, the workload's totals
average the two, while a median of the samples flips between them.

``run.py`` reports each end-to-end metric at the reference speed: times
are divided by ``slowdown``, rates multiplied by it.  The kernel never
calls into ``src/repro``, so a change to the program moves the metrics by
its full amount; only the host's drift is taken out.  The raw figures
still print by name above the result line, with the slowdown.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

import numpy as np

#: Mean kernel time on the reference host (2-vCPU Intel Xeon, Python
#: 3.11, numpy 2.4); a slowdown of 1 means the run went at that speed.
REFERENCE_S = 0.0215
#: Share of the samples left out at each end, against stalls of a single
#: sample.
TRIM = 0.1
KERNEL_ITEMS = 20_000
KERNEL_ARRAY = 100_000


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    started = time.perf_counter()
    heap: List[int] = []
    table = {}
    for item in range(KERNEL_ITEMS):
        heapq.heappush(heap, item * 7919 % 10007)
        table[item] = item * item % 13
    while heap:
        heapq.heappop(heap)
    array = np.arange(KERNEL_ARRAY, dtype=float)
    for _ in range(8):
        array = np.sqrt(array + 1.0)
    np.sort(array[::-1])
    return time.perf_counter() - started


class HostSpeed:
    """Kernel samples taken during one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            self.samples.append(kernel_seconds())

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the reference, the slowest and fastest
        ``TRIM`` of the samples left out: above 1 on a slow host."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[cut:len(ordered) - cut]) / REFERENCE_S
