"""Campaign metrics: named counters and timing histograms.

A :class:`Metrics` registry is cheap enough to leave always-on (a counter
bump is a dict increment; a timing observation updates five numbers), so
the harnesses maintain one unconditionally and the CLI decides whether to
show it (``--metrics``).

Cross-process aggregation rides the drain/merge path of
:class:`~repro.perf.pool.WorkerPool`: each worker's harness accumulates
into its own registry, every campaign shard's reply carries the worker's
:meth:`drain`-ed snapshot back over the pool, and the parent :meth:`merge`\\ s
the deltas — counters and histogram buckets are associative, so the merged
registry equals what a serial run would have counted (timings keep their
counts; wall-clock totals naturally reflect where the work actually ran).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator

#: Histogram bucket upper bounds, in seconds; one extra +inf bucket follows.
TIMING_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0)


class Timing:
    """One timing series: count/total/min/max plus a log-scale histogram."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets = [0] * (len(TIMING_BUCKETS) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)
        self.buckets[bisect_left(TIMING_BUCKETS, seconds)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Timing | dict") -> None:
        if isinstance(other, dict):
            snapshot = Timing.from_json(other)
        else:
            snapshot = other
        if snapshot.count == 0:
            return
        self.count += snapshot.count
        self.total += snapshot.total
        self.min = (
            snapshot.min if self.min is None else min(self.min, snapshot.min)
        )
        self.max = (
            snapshot.max if self.max is None else max(self.max, snapshot.max)
        )
        for index, value in enumerate(snapshot.buckets):
            self.buckets[index] += value

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }

    @classmethod
    def from_json(cls, record: dict) -> "Timing":
        timing = cls()
        timing.count = int(record.get("count", 0))
        timing.total = float(record.get("total", 0.0))
        timing.min = record.get("min")
        timing.max = record.get("max")
        buckets = record.get("buckets") or []
        for index, value in enumerate(buckets[: len(timing.buckets)]):
            timing.buckets[index] = int(value)
        return timing


class Metrics:
    """A registry of named counters and timings."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._timings: dict[str, Timing] = {}

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        timing = self._timings.get(name)
        if timing is None:
            timing = self._timings[name] = Timing()
        timing.observe(seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    # -- reading -----------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def timing(self, name: str) -> Timing | None:
        return self._timings.get(name)

    def timings(self) -> dict[str, Timing]:
        return dict(self._timings)

    # -- aggregation -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "counters": dict(self._counters),
            "timings": {name: t.to_json() for name, t in self._timings.items()},
        }

    @classmethod
    def from_json(cls, record: dict) -> "Metrics":
        metrics = cls()
        metrics.merge(record)
        return metrics

    def merge(self, other: "Metrics | dict | None") -> None:
        """Fold another registry (or a :meth:`to_json`/:meth:`drain`
        snapshot) into this one."""
        if other is None:
            return
        snapshot = other.to_json() if isinstance(other, Metrics) else other
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, int(value))
        for name, record in snapshot.get("timings", {}).items():
            timing = self._timings.get(name)
            if timing is None:
                timing = self._timings[name] = Timing()
            timing.merge(record)

    def drain(self) -> dict:
        """Snapshot-and-reset: the shard-delta primitive for workers."""
        snapshot = self.to_json()
        self._counters.clear()
        self._timings.clear()
        return snapshot

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """A plain-text summary table (the ``--metrics`` output)."""
        lines = []
        if self._counters:
            width = max(len(name) for name in self._counters)
            lines.append("counters:")
            for name in sorted(self._counters):
                lines.append(f"  {name.ljust(width)}  {self._counters[name]}")
        if self._timings:
            width = max(len(name) for name in self._timings)
            lines.append("timings (seconds):")
            for name in sorted(self._timings):
                t = self._timings[name]
                lines.append(
                    f"  {name.ljust(width)}  n={t.count} total={t.total:.3f} "
                    f"mean={t.mean:.4f} min={t.min:.4f} max={t.max:.4f}"
                )
        return "\n".join(lines) if lines else "no metrics recorded"


def merged(parts: "list[Metrics | dict]") -> Metrics:
    """Convenience: merge several registries/snapshots into a fresh one."""
    metrics = Metrics()
    for part in parts:
        metrics.merge(part)
    return metrics
