"""In-memory spans and observed counts for the traced benchmark run.

A span is (name, start, end, parent, run id); spans are recorded by the
benchmark's own code around each public call it makes into stabforge, kept
in memory, and written out once the run ends.  An untraced run passes
``NULL`` instead, whose ``span`` is a shared no-op context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from statistics import median


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.observed: dict[str, list[float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def observe(self, name: str, value: float) -> None:
        """Record one observation of a count; the layer metric is their median."""
        self.observed.setdefault(name, []).append(value)

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict[str, list[float]]:
        """Per span: its duration minus the durations of its direct children."""
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_total):
            out.setdefault(name, []).append(end - start - children)
        return out

    def summary(self) -> dict[str, dict]:
        """Median total and self time per span name, with sample counts."""
        selfs = self.self_times()
        return {
            name: {"n": len(d), "median_s": median(d), "median_self_s": median(selfs[name])}
            for name, d in sorted(self.durations().items())
        }

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
            for name, start, end, parent in self.spans
        ]


class _NullTracer:
    def span(self, name: str):
        return _NULL_CONTEXT

    def observe(self, name: str, value: float) -> None:
        pass


_NULL_CONTEXT = nullcontext()
NULL = _NullTracer()
