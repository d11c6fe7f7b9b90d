"""Host-speed reference for the reported times.

On a shared host the speed of one core drifts by 1.3-2x over a few seconds
(see BASELINE.md), and the drift moves every piece of CPU-bound code alike.
A fixed pure-Python loop, timed right before and right after each measured
step, drifts with the step.  A step that took ``dt`` seconds while the loop
took ``ref`` seconds on average around it is counted as ``dt * REF_S / ref``:
its seconds on a host where the loop takes ``REF_S``.  A change to the
program moves these paced seconds as it moves raw seconds; a change in host
speed largely cancels.  The loop runs outside every timed region, so raw
times do not include it.
"""

from __future__ import annotations

import time
from statistics import median

CHUNK_ITERATIONS = 25_000
CHUNKS_PER_TICK = 3
# The median time of one chunk on the host BENCHMARK.json was tuned on
# (2 vCPUs of an "Intel(R) Xeon(R) Processor" at 2.0 GHz, Python 3.11.7).
REF_S = 0.002


def reference_chunk() -> float:
    """Seconds taken by one fixed chunk of integer arithmetic."""
    t = time.perf_counter()
    s = 0
    for i in range(CHUNK_ITERATIONS):
        s += i * i
    return time.perf_counter() - t


class Pace:
    """Times reference ticks around measured steps and sums paced seconds."""

    def __init__(self):
        self.ticks: list[float] = []
        self.total = 0.0  # paced seconds of the steps since the last take()
        self._last: float | None = None

    def tick(self) -> float:
        """One reference reading: the median of a few chunks, so that one
        interrupted chunk does not count."""
        ref = median(reference_chunk() for _ in range(CHUNKS_PER_TICK))
        self.ticks.append(ref)
        self._last = ref
        return ref

    def step(self, dt: float) -> None:
        """Count a step of ``dt`` raw seconds that has just ended."""
        before = self._last if self._last is not None else self.tick()
        after = self.tick()
        self.total += paced(dt, (before + after) / 2)

    def take(self) -> float:
        """The paced seconds since the last take(); starts the next sum with a tick."""
        total, self.total = self.total, 0.0
        self.tick()
        return total


def paced(dt: float, ref: float) -> float:
    return dt * REF_S / ref
