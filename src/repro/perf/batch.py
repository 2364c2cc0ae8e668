"""Batched probe evaluation.

A supervised probe pays one IPC round-trip (send module, poll, receive
outcome) per candidate.  :class:`ProbeBatch` amortizes that: callers hand it
``[(module, inputs), ...]`` and one ``target.run_batch`` request carries
the whole window (the worker streams the outcomes back).  Targets without a ``run_batch`` method degrade to per-item
``run`` calls, so the API is safe to use unconditionally — results are
byte-identical to serial probing either way.
"""

from __future__ import annotations

from typing import Any

class ProbeBatch:
    """Evaluate many ``(module, inputs)`` probes per target entry."""

    def __init__(self, target: Any, *, metrics: Any = None) -> None:
        self.target = target
        self.metrics = metrics

    def run(self, items: list) -> list:
        """Return one outcome per ``(module, inputs)`` item, in order."""
        items = list(items)
        if not items:
            return []
        run_batch = getattr(self.target, "run_batch", None)
        if run_batch is None or len(items) == 1:
            return [self.target.run(module, inputs) for module, inputs in items]
        if self.metrics is not None:
            self.metrics.inc("probe_batch.batches")
            self.metrics.inc("probe_batch.probes", len(items))
        return run_batch(items)
