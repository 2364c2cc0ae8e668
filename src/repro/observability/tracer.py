"""Structured tracing: an append-only JSONL event bus for campaigns.

Every phase of a campaign — seed fuzzing, per-target probes, reduction,
deduplication, and robustness events (faults, retries, quarantines) — emits
one JSON object per line through a :class:`Tracer`.  The design goals are
the same as :class:`~repro.robustness.journal.CampaignJournal`'s:

* **zero-cost when disabled** — instrumented code holds a
  :data:`NULL_TRACER` whose methods are no-ops; campaign results are
  byte-identical with tracing on or off (tracing only ever *observes*);
* **process-safe** — the trace file is opened in append mode (``O_APPEND``)
  and each event is written as a single line, so parallel campaign workers
  can share one trace file without interleaving partial lines; the handle
  is re-opened after a ``fork`` so a child never shares its parent's file
  position;
* **crash-safe** — same truncated-line discipline as the journal: a writer
  that finds the file ending mid-line (a previous process was killed
  mid-write) starts on a fresh line, and :func:`read_trace` skips any line
  that does not parse.

Event shape (one per line)::

    {"v": 1, "ts": 1722945600.123456, "pid": 4242, "ev": "probe",
     "target": "SwiftShader", "outcome": "crash", ...}

Span helpers emit paired ``<name>.begin`` / ``<name>.end`` events, the end
event carrying ``dur_s``; a crash mid-span leaves the ``begin`` event as
evidence of where the campaign died.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

TRACE_VERSION = 1


class _NullSpan:
    """A reusable no-op context manager."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code calls ``tracer.emit(...)`` unconditionally; holding
    this object instead of a real :class:`Tracer` makes tracing free (one
    attribute lookup and an empty call) and guarantees no file is touched.
    """

    enabled = False
    path = None

    def emit(self, event: str, **fields: Any) -> None:
        pass

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def close(self) -> None:
        pass


#: The shared disabled tracer; instrumented modules default to this.
NULL_TRACER = NullTracer()


class Tracer:
    """Appends structured events to a JSONL trace file.

    One tracer is bound to one path; parallel workers each build their own
    tracer over the same path (see ``CampaignSpec.trace``) and rely on
    ``O_APPEND`` line atomicity for interleaving safety.
    """

    enabled = True

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._handle = None
        self._pid: int | None = None

    # -- writing -----------------------------------------------------------------

    def _ensure_handle(self):
        pid = os.getpid()
        if self._handle is not None and self._pid == pid:
            return self._handle
        if self._handle is not None:
            # Forked child: drop the inherited handle without closing it
            # (closing could flush parent-buffered bytes twice); open anew.
            self._handle = None
        handle = self.path.open("ab")
        try:
            if self.path.stat().st_size > 0:
                with self.path.open("rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    if probe.read(1) != b"\n":
                        # A previous writer was killed mid-line; start fresh
                        # so this process's events stay parseable.
                        handle.write(b"\n")
        except OSError:  # pragma: no cover - stat raced with unlink
            pass
        self._handle, self._pid = handle, pid
        return handle

    def emit(self, event: str, **fields: Any) -> None:
        record: dict[str, Any] = {
            "v": TRACE_VERSION,
            "ts": round(time.time(), 6),
            "pid": os.getpid(),
            "ev": event,
        }
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str).encode("utf-8")
        handle = self._ensure_handle()
        handle.write(line + b"\n")
        handle.flush()

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        """Emit ``<name>.begin`` now and ``<name>.end`` (with ``dur_s``) on
        exit, even if the body raises."""
        self.emit(f"{name}.begin", **fields)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.emit(
                f"{name}.end",
                dur_s=round(time.perf_counter() - started, 6),
                **fields,
            )

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None and self._pid == os.getpid():
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass


def as_tracer(value: Any) -> Any:
    """Coerce *value* to a tracer: ``None`` -> :data:`NULL_TRACER`, a path
    -> a :class:`Tracer` over it, an existing tracer -> itself."""
    if value is None:
        return NULL_TRACER
    if isinstance(value, (str, Path)):
        return Tracer(value)
    return value


def read_trace(path: Path | str) -> Iterator[dict]:
    """Yield every parseable event in a trace file.

    Lines truncated by an untimely kill (or interleaved garbage) are
    skipped (:func:`~repro.robustness.journal.read_jsonl`) — a trace is
    useful evidence precisely when the campaign died violently.
    """
    # Imported here: ``repro.robustness`` imports this package at load.
    from repro.robustness.journal import read_jsonl

    path = Path(path)
    if not path.exists():
        return
    for record in read_jsonl(path):
        if "ev" in record:
            yield record
