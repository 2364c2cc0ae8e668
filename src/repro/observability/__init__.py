"""Observability for campaigns: structured tracing + metrics (beyond the
paper).

The paper's "almost for free" claim is quantified by counters — probes run,
reduction tests, dedup reports.  This package makes every phase of a
campaign observable without changing its behaviour:

* :class:`Tracer` — an append-only JSONL event bus (process-safe via
  ``O_APPEND``, crash-safe via the journal's truncated-line discipline);
  :data:`NULL_TRACER` is the zero-cost disabled form, and campaign results
  are byte-identical with tracing on or off.
* :class:`Metrics` — named counters and timing histograms, aggregated
  across :class:`~repro.perf.pool.WorkerPool` workers through the pool's
  per-submission drain/merge path (workers :meth:`~Metrics.drain`, the
  parent :meth:`~Metrics.merge`\\ s).
* ``repro-report`` (:func:`report_main`) — renders a campaign summary
  (probes, findings by kind/signature, reduction work, replay-cache hit
  rate, faults/quarantines) from a trace or journal file alone.
"""

from repro.observability.metrics import Metrics, Timing, merged
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    as_tracer,
    read_trace,
)

#: Report symbols are loaded lazily so ``python -m repro.observability.report``
#: does not import the module twice (once here, once as ``__main__``).
_REPORT_EXPORTS = ("cache_hit_percent", "render", "report_main", "summarize")


def __getattr__(name: str):
    if name in _REPORT_EXPORTS:
        from repro.observability import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Metrics",
    "NULL_TRACER",
    "NullTracer",
    "Timing",
    "Tracer",
    "as_tracer",
    "cache_hit_percent",
    "merged",
    "read_trace",
    "render",
    "report_main",
    "summarize",
]
