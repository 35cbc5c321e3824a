"""Host speed, sampled with a fixed piece of pure-Python work between the
pieces of work being timed.

The reference machine is a shared VM. Its CPU speed swings by up to 1.8x
within seconds as neighbours load the host, and a 3-second run of the
same input can take anywhere from 2.4 to 4.5 seconds. That swamps the
differences the benchmark has to resolve. A calibration sample is a small
best-first grid search (heap, dict and tuple churn, as in the package's
A*). Measured next to it, 26 ms of `plan_path` work tracks the sample's
time with slope 0.98 and correlation 0.89.

`SpeedTimeline` keeps the samples of one run. `scaled(a, b)` converts the
wall interval `[a, b]` into seconds at the reference speed, the speed at
which one sample takes `REFERENCE_S`. Each stretch between two samples is
scaled by the mean of those two samples, and time spent in the samples
themselves is left out.
"""

from __future__ import annotations

import bisect
import heapq
import time

REFERENCE_S = 0.001
EXPANSIONS = 500


def calibration_work() -> None:
    heap = [(0, 0, 0)]
    seen: dict[tuple[int, int], int] = {}
    while heap and len(seen) < EXPANSIONS:
        f, r, c = heapq.heappop(heap)
        if (r, c) in seen:
            continue
        seen[(r, c)] = f
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (r + dr, c + dc)
            if nb not in seen:
                heapq.heappush(heap, (f + 1 + abs(nb[0]) + abs(nb[1]), nb[0], nb[1]))


class SpeedTimeline:
    def __init__(self, clock=time.perf_counter, work=calibration_work):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._clock = clock
        self._work = work

    def sample(self) -> None:
        """Time one calibration sample."""
        start = self._clock()
        self._work()
        self.starts.append(start)
        self.ends.append(self._clock())

    def _seconds_per_reference(self, k: int) -> float:
        """Wall seconds per reference second in the gap before sample `k`."""
        n = len(self.starts)
        around = [i for i in (k - 1, k) if 0 <= i < n]
        return sum(self.ends[i] - self.starts[i] for i in around) / len(around) / REFERENCE_S

    def _gaps(self, a: float, b: float):
        """(length, k) for each piece of [a, b] in the gap before sample k."""
        if not self.starts:
            raise ValueError("no calibration samples")
        starts, ends, n = self.starts, self.ends, len(self.starts)
        k = bisect.bisect_right(starts, a)  # first sample starting after a
        lo = max(a, ends[k - 1]) if k > 0 else a
        while lo < b:
            hi = min(b, starts[k]) if k < n else b
            if hi > lo:
                yield hi - lo, k
            if k >= n:
                break
            lo = max(lo, ends[k])
            k += 1

    def wall(self, a: float, b: float) -> float:
        """Wall seconds in [a, b], samples excluded."""
        return sum(length for length, _ in self._gaps(a, b))

    def scaled(self, a: float, b: float) -> float:
        """Reference-speed seconds in [a, b], samples excluded."""
        return sum(length / self._seconds_per_reference(k) for length, k in self._gaps(a, b))
