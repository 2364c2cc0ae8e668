"""Per-layer spans for the traced benchmark run.

The traced run wraps the public functions of each layer *from here*, so
the program under test carries no instrumentation.  Every wrapped call
records one span ``(name, start, end, parent)`` in memory; the spans are
written out once, after the run, and a layer's self time is its span's
duration minus the time its child spans cover.

A function is patched wherever it is looked up: ``compilers.pipeline`` and
``perf.probe_cache`` import ``execute`` and ``validate`` by name, so the
module attribute of each importer is replaced, not only the defining one.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: (module, attribute) bindings of each wrapped function, by span name.
FUNCTION_BINDINGS = {
    "compilers.pipeline.optimize": [
        ("repro.compilers.pipeline", "optimize"),
        ("repro.compilers", "optimize"),
        ("repro.core.harness", "optimize"),
        ("repro.baseline.harness", "optimize"),
    ],
    "ir.validator.validate": [
        ("repro.ir.validator", "validate"),
        ("repro.ir", "validate"),
        ("repro.compilers.pipeline", "validate"),
        ("repro.compilers.validator_target", "validate"),
        ("repro.perf.probe_cache", "validate"),
    ],
    "interp.execute": [
        ("repro.interp.interpreter", "execute"),
        ("repro.interp", "execute"),
        ("repro.compilers.pipeline", "execute"),
        ("repro.perf.probe_cache", "execute"),
    ],
    "core.harness.classify_outcome": [
        ("repro.core.harness", "classify_outcome"),
        ("repro.baseline.harness", "classify_outcome"),
    ],
    "core.transformation.apply_sequence": [
        ("repro.core.transformation", "apply_sequence"),
        ("repro.core.reducer", "apply_sequence"),
        ("repro.perf.replay_cache", "apply_sequence"),
    ],
    "core.dedup.deduplicate": [
        ("repro.core.dedup", "deduplicate"),
    ],
}

#: (module, class, method) of each wrapped method, by span name.
METHOD_BINDINGS = {
    "compilers.pipeline.target_run": [
        ("repro.compilers.pipeline", "Target", "run"),
        ("repro.perf.probe_cache", "CachingTarget", "run"),
    ],
    "compilers.pipeline.optimize": [
        ("repro.perf.probe_cache", "CachedOptimizer", "__call__"),
    ],
    "core.fuzzer.run": [("repro.core.fuzzer", "Fuzzer", "run")],
    "ir.module.clone": [("repro.ir.module", "Module", "clone")],
    "ir.module.fingerprint": [("repro.ir.module", "Module", "fingerprint")],
    "ir.module.content_digest": [
        ("repro.ir.module", "Module", "content_digest")
    ],
    "robustness.fileops.fsync": [("repro.robustness.chaos", "FileOps", "fsync")],
    "robustness.fileops.fsync_dir": [
        ("repro.robustness.chaos", "FileOps", "fsync_dir")
    ],
    "robustness.journal.append": [
        ("repro.robustness.journal", "CampaignJournal", "append_record"),
        ("repro.robustness.journal", "ReductionJournal", "append"),
    ],
    "service.store.transition": [
        ("repro.service.store", "CampaignStore", "transition")
    ],
    "service.store.write_result": [
        ("repro.service.store", "CampaignStore", "write_result")
    ],
    "service.engine.finalize": [
        ("repro.service.engine", "CampaignService", "_finalize")
    ],
}

PASS_NAMES = (
    "legalize",
    "mem2reg",
    "copyprop",
    "constfold",
    "simplifycfg",
    "inline",
    "dce",
    "layout",
)

#: Every span name the traced run reports ``.calls``/``.self_ms`` for.
SPAN_NAMES = (
    *(f"compilers.passes.{name}" for name in PASS_NAMES),
    "compilers.pipeline.target_run",
    "compilers.pipeline.optimize",
    "ir.validator.validate",
    "interp.execute",
    "core.harness.classify_outcome",
    "core.fuzzer.run",
    "ir.module.clone",
    "ir.module.fingerprint",
    "ir.module.content_digest",
    "core.transformation.apply_sequence",
    "core.dedup_scale.ingest",
    "core.dedup.deduplicate",
    "robustness.fileops.fsync",
    "robustness.fileops.fsync_dir",
    "robustness.journal.append",
    "service.store.transition",
    "service.store.write_result",
    "service.engine.finalize",
)

#: Latency samples (not spans) the service probes record, in ms.
SAMPLE_NAMES = ("service.fleet.batch_rtt_ms", "service.scheduler.queue_wait_ms")


class SpanRecorder:
    """In-memory span store with a parent stack (the benchmark is
    single-threaded in the parent process, so one stack suffices)."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1); ``None`` while open.
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        #: Named latency samples in ms (see :data:`SAMPLE_NAMES`).
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLE_NAMES}
        #: Counters summed at layer boundaries.
        self.counts: dict[str, int] = {}

    def wrap(self, name: str | Callable[[tuple], str], fn: Callable) -> Callable:
        """*fn* recording one span per call; *name* may be a function of
        the call's positional arguments (``Pass.run`` keys on ``self.name``)."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name_of(args) if name_of else name,
                    start,
                    end,
                    parent,
                )

        traced.__wrapped__ = fn
        return traced

    def sample(self, name: str, value_ms: float) -> None:
        self.samples[name].append(value_ms)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dedup_figures(self) -> dict[str, float]:
        """The streaming dedup's counters, as the per-layer metrics
        ``comparisons_per_candidate`` and ``sketch_suppressions`` (total)."""
        candidates = self.counts.get("dedup.candidates", 0)
        return {
            "core.dedup_scale.comparisons_per_candidate": (
                self.counts.get("dedup.comparisons", 0) / candidates
                if candidates
                else 0.0
            ),
            "core.dedup_scale.sketch_suppressions": self.counts.get(
                "dedup.sketch_suppressions", 0
            ),
        }

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)``: each span's duration minus
        the summed durations of its direct children (children of one
        parent never overlap on a single thread)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, tuple[int, float]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            calls, busy = totals.get(span[0], (0, 0.0))
            totals[span[0]] = (
                calls + 1,
                busy + (span[2] - span[1]) - child_time[index],
            )
        return totals

    def write(self, path: Path) -> None:
        """Write every closed span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")


class _Patches:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _pass_classes(base: type) -> Iterator[type]:
    for cls in base.__subclasses__():
        yield cls
        yield from _pass_classes(cls)


@contextmanager
def traced_layers(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every layer boundary to record into *recorder*; restore the
    originals on exit.  Objects that captured a function before entry
    (a harness binds ``optimize`` at construction) keep the original, so
    build the traced run's program objects inside this context."""
    patches = _Patches()
    try:
        for name, bindings in FUNCTION_BINDINGS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                patches.set(module, attr, recorder.wrap(name, original))
        for name, bindings in METHOD_BINDINGS.items():
            for module_name, cls_name, attr in bindings:
                cls = getattr(importlib.import_module(module_name), cls_name)
                patches.set(cls, attr, recorder.wrap(name, cls.__dict__[attr]))
        from repro.compilers.passes import Pass

        for cls in _pass_classes(Pass):
            if "run" in cls.__dict__:
                patches.set(
                    cls,
                    "run",
                    recorder.wrap(
                        lambda args: f"compilers.passes.{args[0].name}",
                        cls.__dict__["run"],
                    ),
                )
        _patch_dedup_ingest(recorder, patches)
        _patch_service_probes(recorder, patches)
        yield recorder
    finally:
        patches.restore()


def _patch_dedup_ingest(recorder: SpanRecorder, patches: _Patches) -> None:
    """One span per ``StreamingDedup.ingest_many`` call (a span per single
    arrival would flood memory), plus the engine's own comparison and
    sketch counters read at the same boundary."""
    from repro.core.dedup_scale import StreamingDedup

    traced = recorder.wrap(
        "core.dedup_scale.ingest", StreamingDedup.__dict__["ingest_many"]
    )

    def counted_ingest_many(self, tests):
        stats = self.stats
        before = (stats.candidates, stats.comparisons, stats.sketch_suppressions)
        traced(self, tests)
        recorder.count("dedup.candidates", stats.candidates - before[0])
        recorder.count("dedup.comparisons", stats.comparisons - before[1])
        recorder.count(
            "dedup.sketch_suppressions", stats.sketch_suppressions - before[2]
        )

    patches.set(StreamingDedup, "ingest_many", counted_ingest_many)


def _patch_service_probes(recorder: SpanRecorder, patches: _Patches) -> None:
    """Batch round-trip (grant -> ``done``) and scheduler queue wait
    (admit/requeue -> handed out), measured at the parent's boundaries."""
    from repro.service.fleet import WorkerFleet
    from repro.service.scheduler import FairScheduler

    clock = time.perf_counter
    sent: dict[int, float] = {}
    queued: dict[tuple, float] = {}
    send_batch = WorkerFleet.__dict__["send_batch"]
    poll = WorkerFleet.__dict__["poll"]
    admit = FairScheduler.__dict__["admit"]
    requeue = FairScheduler.__dict__["requeue"]
    next_batch = FairScheduler.__dict__["next_batch"]

    def traced_send_batch(self, worker_id, *args, **kwargs):
        ok = send_batch(self, worker_id, *args, **kwargs)
        if ok:
            sent[worker_id] = clock()
        return ok

    def traced_poll(self, timeout):
        events = poll(self, timeout)
        now = clock()
        for event in events:
            if event[0] == "msg" and event[2][0] == "done" and event[1] in sent:
                recorder.sample(
                    "service.fleet.batch_rtt_ms", (now - sent.pop(event[1])) * 1e3
                )
        return events

    def traced_admit(self, campaign_id, tenant, batches, *args, **kwargs):
        rejection = admit(self, campaign_id, tenant, batches, *args, **kwargs)
        if rejection is None:
            now = clock()
            for batch in batches:
                queued[batch.key] = now
        return rejection

    def traced_requeue(self, batch):
        queued[batch.key] = clock()
        return requeue(self, batch)

    def traced_next_batch(self):
        batch = next_batch(self)
        if batch is not None and batch.key in queued:
            recorder.sample(
                "service.scheduler.queue_wait_ms",
                (clock() - queued.pop(batch.key)) * 1e3,
            )
        return batch

    patches.set(WorkerFleet, "send_batch", traced_send_batch)
    patches.set(WorkerFleet, "poll", traced_poll)
    patches.set(FairScheduler, "admit", traced_admit)
    patches.set(FairScheduler, "requeue", traced_requeue)
    patches.set(FairScheduler, "next_batch", traced_next_batch)
