"""In-memory spans around the benchmark's calls into each sphinterp layer.

A span records name, start, end, parent span and job id. Spans stay in
memory and are aggregated (and written out) when the run ends. Self time is
a span's duration minus the time covered by its child spans; the run is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class NullTracer:
    """Tracing off: calls go straight through; counters are still kept."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.job = ""
        self.attributed_s = 0.0

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def attributed(self, name, fn, *args):
        """A traced-only extra call that attributes time hidden inside another call."""


class Tracer(NullTracer):
    """Tracing on: every ``call`` becomes a span under the innermost open one."""

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = Span(name=name, job=self.job, parent=parent, start=time.perf_counter())
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += span.end - span.start

    def attributed(self, name, fn, *args):
        start = time.perf_counter()
        self.call(name, fn, *args)
        self.attributed_s += time.perf_counter() - start


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values) if values else None}
    for pct in TAIL_PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out["tail_pct"] = pct
            out["tail"] = cuts[round(pct * 10) - 1]
            break
    return out


def self_times(spans: list[Span]) -> dict[str, list[float]]:
    """Per-call self times grouped by span name."""
    out: dict[str, list[float]] = {}
    for span in spans:
        out.setdefault(span.name, []).append(span.self_s)
    return out
