"""The reduction engine: delta debugging with a deterministic commit order
(§3.4; speculative parallelism is C-Reduce-style, beyond the paper).

Every ddmin reduction in the package — serial or parallel, with or without
a fault policy — runs through one :class:`ReductionSession` over one
:class:`SpeculativeReduction` engine, and decides every candidate through
one :class:`~repro.robustness.reduction.FlakeHardenedOracle`.  The reducers
build their sessions as ddmin *legs* of a :class:`~repro.reduce.
PassPipeline`, which yields each leg to its caller:
:meth:`ReductionSession.run` drives one leg, and :func:`run_sessions`
drives the current legs of many reductions (the findings of one
``reduce_all``) together over one shared worker pool.
:func:`~repro.core.reducer.reduce_transformations` stays as the paper's
reference loop that the identity tests compare against.

Candidates within a delta-debugging scan are independent until one is
accepted: a verdict is a pure function of the candidate subsequence
(Definition 2.5 — replaying a subsequence is deterministic in the original
module and inputs), so probing several candidates concurrently cannot
change any individual verdict.  What speculation *can* change is which
candidates ever get probed: once a removal is accepted, every candidate
generated against the stale base is obsolete.  The engine therefore keeps
the reference loop's exact semantics under a **deterministic commit
protocol**:

1. Candidates are generated along the *all-reject trajectory* — the exact
   stream the reference loop would probe if every pending verdict came back
   "not interesting".  Several of them are probed at once.
2. Verdicts are **committed strictly in serial scan order**, no matter in
   which order probes finish.  A committed rejection keeps the trajectory
   valid; a committed acceptance invalidates every speculative verdict and
   in-flight probe after it (counted as *wasted*), rebuilds the trajectory
   from the accepted state, and continues.
3. The committed ``(candidate, verdict)`` stream therefore equals the
   reference loop's stream **exactly**, so ``transformations``,
   ``tests_run``, ``chunks_removed``, and the accepted-chunk ``history``
   are byte-identical for every worker count.

**Serial is one candidate in flight**: an inline session probes one
candidate at a time in the calling process and emits only the reference
loop's ``reduce.round`` events.  A pool-backed session (driven by
:func:`run_sessions`) keeps up to :data:`SPECULATION_PER_WORKER` candidates
per worker in flight and ramps towards that cap adaptively — one after an
acceptance (where speculation is likely wasted), doubling while rejections
commit (where the all-reject assumption is holding) — and the ramp is a
function of the committed verdict stream only, never of timing.  Every
engine event carries its session's ``key`` (``finding-N`` under the
harness), so the rounds of reductions sharing a pool can be told apart in
one trace.

**The oracle is the commit hook**: the engine keys each candidate once
(``oracle.key``); the oracle's read-only ``lookup`` resolves journaled and
memoized keys without probing, and its ``commit`` folds each decision —
inline or from a worker — into the memo, stability accounting and journal
in serial order.  A policy-less oracle trusts one probe per decision and
lets probe errors propagate, which is the reference loop exactly.
Byte-identity is guaranteed for deterministic oracles; a run cut short by a
wall-clock budget or a genuinely flaky oracle is timing-dependent anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.core.reducer import ReductionResult
from repro.observability import as_tracer

#: In-flight candidates per worker a pool-backed reduction ramps up to.
SPECULATION_PER_WORKER = 4


@dataclass
class SpeculationStats:
    """Work accounting for one speculative reduction."""

    dispatched: int = 0  #: probes sent to workers (or run inline)
    committed: int = 0  #: candidate decisions committed in serial order
    wasted: int = 0  #: dispatched probes discarded by an earlier acceptance
    memo_short_circuits: int = 0  #: candidates resolved from the parent memo
    journal_short_circuits: int = 0  #: candidates resolved from a resumed journal
    batches: int = 0  #: dispatch rounds
    max_in_flight: int = 0  #: peak concurrently outstanding probes
    worker_recoveries: int = 0  #: worker deaths that lost this session's probes
    workers: int = 1  #: worker processes backing the reduction
    mode: str = "inline"  #: "inline" (no pool) or "pool"

    @property
    def wasted_percent(self) -> float:
        if not self.dispatched:
            return 0.0
        return 100.0 * self.wasted / self.dispatched

    def to_json(self) -> dict:
        return {
            "dispatched": self.dispatched,
            "committed": self.committed,
            "wasted": self.wasted,
            "wasted_percent": round(self.wasted_percent, 2),
            "memo_short_circuits": self.memo_short_circuits,
            "journal_short_circuits": self.journal_short_circuits,
            "batches": self.batches,
            "max_in_flight": self.max_in_flight,
            "worker_recoveries": self.worker_recoveries,
            "workers": self.workers,
            "mode": self.mode,
        }


class _Candidate:
    """One generated candidate: its position in the serial commit order, the
    index tuple (into the engine's items) that materialises it, and its
    oracle key."""

    __slots__ = ("sid", "chunk", "start", "end", "indices", "key")

    def __init__(
        self,
        sid: int,
        chunk: int,
        start: int,
        end: int,
        indices: tuple[int, ...],
        key: Any,
    ) -> None:
        self.sid = sid
        self.chunk = chunk
        self.start = start
        self.end = end
        self.indices = indices
        self.key = key


def _trajectory(
    length: int, chunk: int, end: int, removed_in_pass: bool
) -> Iterator[tuple[int, int, int]]:
    """Yield the serial reducer's ``(chunk_size, start, end)`` probe stream
    under the all-reject assumption, starting from the given scan state.

    The serial loop's ``current`` only changes on acceptance, and the engine
    rebuilds this generator at every committed acceptance, so within one
    generator's life the base (and hence ``length``) is fixed.  The chunk
    ladder is ``length``-independent: the serial reducer halves from
    ``⌊n/2⌋`` of the *initial* sequence regardless of later removals.
    """
    while chunk >= 1:
        while True:
            while end > 0:
                start = max(0, end - chunk)
                # The serial reducer skips the empty candidate (start == 0 and
                # end == length) without spending a test; so do we.
                if not (start == 0 and end == length):
                    yield chunk, start, end
                end = start
            if removed_in_pass:
                # A removal succeeded earlier in this pass: repeat the pass at
                # the same chunk size (the serial ``while removed_any`` loop).
                removed_in_pass = False
                end = length
                continue
            break
        chunk //= 2
        end = length


class SpeculativeReduction:
    """The commit-ordered engine for one reduction.

    The engine owns the trajectory, the in-flight cap, and the commit
    protocol; a :class:`ReductionSession` drives it (inline, or over a pool
    through :func:`run_sessions`) with three calls: :meth:`take_dispatch`
    (candidates needing probes), :meth:`deliver` (a probe verdict arrived),
    and :meth:`commit_ready` (commit every verdict at the serial frontier).

    *positions* selects the sequence under reduction as indices into
    *items* (default: all of them); candidates are index tuples into
    *items*, so a pool built over a longer original sequence needs no
    re-basing.

    *oracle* (a :class:`~repro.robustness.reduction.FlakeHardenedOracle`)
    keys each generated candidate once.  Its ``lookup`` resolves a key
    without probing — the journal-resume and memo short-circuit — and must
    be **read-only**: speculative candidates may never commit, so all
    bookkeeping belongs in its ``commit``, which sees the committed
    serial-order stream, returns the final verdict, and may raise to abort
    the reduction.

    *stats* says how the engine is driven: ``mode == "pool"`` caps the
    in-flight candidates at :data:`SPECULATION_PER_WORKER` per worker and
    emits the speculation trace events (``reduce.dispatch``/``commit``/
    ``speculate``); an inline engine keeps one in flight.  Every engine
    emits the reference loop's ``reduce.round`` events.
    """

    def __init__(
        self,
        items: Sequence,
        oracle: Any,
        *,
        positions: Sequence[int] | None = None,
        key: str = "reduction",
        tracer: Any = None,
        stats: SpeculationStats | None = None,
    ) -> None:
        self.items = list(items)
        self.key = key
        self.current: list[int] = (
            list(positions) if positions is not None else list(range(len(self.items)))
        )
        length = len(self.current)
        self.initial_length = length
        self.oracle = oracle
        self.tracer = as_tracer(tracer)
        self.stats = stats if stats is not None else SpeculationStats()
        self._cap = (
            SPECULATION_PER_WORKER * max(1, self.stats.workers)
            if self.speculative
            else 1
        )
        self.tests_run = 0
        self.chunks_removed = 0
        self.history: list[tuple[int, int, int]] = []
        self.timed_out = False
        self._memo: dict[tuple[int, ...], bool] = {}
        self._ladder: list[int] = []
        chunk = length // 2
        while chunk >= 1:
            self._ladder.append(chunk)
            chunk //= 2
        self._round_index = 0
        self._round_tried = 0
        self._round_removed = 0
        self._gen: Iterator[tuple[int, int, int]] = (
            _trajectory(length, self._ladder[0], length, False)
            if self._ladder
            else iter(())
        )
        self._gen_exhausted = not self._ladder
        self._next_sid = 0
        self._commit_sid = 0
        self._outstanding: dict[int, _Candidate] = {}
        self._resolved: dict[int, tuple[_Candidate, bool, dict | None, str]] = {}
        self._ramp = 1
        self._finished = False

    # -- driver surface ----------------------------------------------------------

    @property
    def done(self) -> bool:
        if self._finished:
            return True
        return (
            self._gen_exhausted
            and not self._outstanding
            and not self._resolved
        )

    def materialize(self, candidate: "_Candidate") -> list:
        return [self.items[i] for i in candidate.indices]

    def take_dispatch(self, limit: int) -> list["_Candidate"]:
        """Up to *limit* candidates that need a real probe, respecting the
        adaptive ramp; memo/lookup-resolvable candidates are resolved on
        the spot (they cost nothing) and never count against it.

        Generation stops at a resolved acceptance: every later candidate is
        stale whichever way the verdicts before it fall, so probing one
        would only spend a probe (and, inline, move oracle state) on a
        decision that can never commit."""
        out: list[_Candidate] = []
        if self._finished:
            return out
        while len(out) < limit and len(self._outstanding) + len(out) < self._ramp:
            candidate = self._generate()
            if candidate is None:
                break
            cached = self._memo.get(candidate.indices)
            if cached is not None:
                self._resolved[candidate.sid] = (candidate, cached, None, "memo")
                self.stats.memo_short_circuits += 1
                if cached:
                    break
                continue
            hit = self.oracle.lookup(candidate.key)
            if hit is not None:
                verdict, record, source = hit
                self._resolved[candidate.sid] = (candidate, verdict, record, source)
                if source == "journal":
                    self.stats.journal_short_circuits += 1
                if verdict:
                    break
                continue
            self._outstanding[candidate.sid] = candidate
            out.append(candidate)
        if out:
            self.stats.dispatched += len(out)
            self.stats.batches += 1
            in_flight = len(self._outstanding)
            if in_flight > self.stats.max_in_flight:
                self.stats.max_in_flight = in_flight
            if self.tracer.enabled and self.speculative:
                self.tracer.emit(
                    "reduce.dispatch",
                    key=self.key,
                    count=len(out),
                    in_flight=in_flight,
                    chunk_size=out[0].chunk,
                )
        return out

    def deliver(
        self,
        sid: int,
        verdict: bool,
        record: dict | None = None,
        source: str = "probe",
    ) -> bool:
        """Record a probe verdict; returns False for stale deliveries (the
        candidate was invalidated by an earlier acceptance, or the engine
        already finished) — their waste was counted at invalidation time."""
        candidate = self._outstanding.pop(sid, None)
        if candidate is None or self._finished:
            return False
        self._resolved[sid] = (candidate, verdict, record, source)
        return True

    def commit_ready(self) -> bool:
        """Commit every resolved verdict at the serial frontier, in order."""
        progressed = False
        while not self._finished and self._commit_sid in self._resolved:
            candidate, verdict, record, source = self._resolved.pop(self._commit_sid)
            self._commit_sid += 1
            self.tests_run += 1  # counted even if the oracle's commit aborts
            verdict = self.oracle.commit(
                candidate.key, len(candidate.indices), record, source
            )
            self._commit(candidate, verdict)
            progressed = True
        return progressed

    def finish_timed_out(self) -> None:
        """Stop at the current best: the wall-clock budget ran out."""
        if self._finished:
            return
        self.timed_out = True
        self._discard_speculation()
        self._finished = True
        # The serial reducer emits the partially scanned round before exiting.
        if self._ladder and self._round_index < len(self._ladder):
            self._flush_round()

    def finalize(self) -> None:
        """Emit the remaining per-chunk-size round events (the serial reducer
        visits every ladder entry, probing or not)."""
        if self._finished:
            return
        self._finished = True
        while self._round_index < len(self._ladder):
            self._flush_round()

    @property
    def speculative(self) -> bool:
        return self.stats.mode == "pool"

    def result(self) -> ReductionResult:
        """The reduction so far."""
        return ReductionResult(
            transformations=[self.items[i] for i in self.current],
            tests_run=self.tests_run,
            chunks_removed=self.chunks_removed,
            initial_length=self.initial_length,
            timed_out=self.timed_out,
            history=list(self.history),
        )

    # -- internals ---------------------------------------------------------------

    def _generate(self) -> "_Candidate | None":
        for chunk, start, end in self._gen:
            indices = tuple(self.current[:start] + self.current[end:])
            key = self.oracle.key([self.items[i] for i in indices])
            candidate = _Candidate(self._next_sid, chunk, start, end, indices, key)
            self._next_sid += 1
            return candidate
        self._gen_exhausted = True
        return None

    def _commit(self, candidate: "_Candidate", verdict: bool) -> None:
        self._sync_round(candidate.chunk)
        self.stats.committed += 1
        self._round_tried += 1
        self._memo[candidate.indices] = verdict
        if not verdict:
            self._ramp = min(self._cap, self._ramp * 2)
            return
        # Acceptance: adopt the candidate, invalidate all speculation beyond
        # it, and restart the trajectory from the serial reducer's state —
        # same chunk size, scan resuming at the removal point, pass marked
        # as having removed something.
        self.current = list(candidate.indices)
        self.chunks_removed += 1
        self._round_removed += 1
        self.history.append((candidate.chunk, candidate.start, candidate.end))
        wasted = self._discard_speculation()
        self._commit_sid = self._next_sid
        self._ramp = 1
        self._gen = _trajectory(
            len(self.current), candidate.chunk, candidate.start, True
        )
        self._gen_exhausted = False
        if self.tracer.enabled and self.speculative:
            self.tracer.emit(
                "reduce.commit",
                key=self.key,
                chunk_size=candidate.chunk,
                start=candidate.start,
                end=candidate.end,
                remaining=len(self.current),
            )
            if wasted:
                self.tracer.emit(
                    "reduce.speculate",
                    key=self.key,
                    wasted=wasted,
                    chunk_size=candidate.chunk,
                )

    def _discard_speculation(self) -> int:
        """Drop every generated-but-uncommitted candidate; probes already
        spent on them count as wasted."""
        wasted = len(self._outstanding) + sum(
            1 for (_, _, _, source) in self._resolved.values() if source == "probe"
        )
        self.stats.wasted += wasted
        self._outstanding.clear()
        self._resolved.clear()
        return wasted

    def _sync_round(self, chunk: int) -> None:
        while self._ladder[self._round_index] != chunk:
            self._flush_round()

    def _flush_round(self) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                "reduce.round",
                key=self.key,
                chunk_size=self._ladder[self._round_index],
                tried=self._round_tried,
                removed=self._round_removed,
                remaining=len(self.current),
            )
        self._round_index += 1
        self._round_tried = 0
        self._round_removed = 0


class ReductionSession:
    """One ddmin reduction (a pipeline's ddmin leg) from start to finish:
    build, drive, finalize — every ddmin reduction in the package runs as
    one.

    The session decides through *oracle*, a :class:`~repro.robustness.
    reduction.FlakeHardenedOracle` whose ``key``/``lookup``/``commit``
    become the engine's commit hook.  Without a *pool* it runs inline, one
    candidate at a time — the serial reducer; with one, :func:`run_sessions`
    dispatches its candidates under *key*, side by side with other
    sessions, up to :data:`SPECULATION_PER_WORKER` per worker in flight.
    *positions* is the base map from the sequence under reduction into
    *items*, the sequence the pool's workers were built over.

    A session does not verify its input: its pipeline does, before the
    first leg.  :meth:`finalize` returns the result — a fault-tolerant
    oracle's session stops at best-so-far with a structured ``degraded``
    reason rather than raise.
    """

    def __init__(
        self,
        items: Sequence,
        oracle: Any,
        *,
        pool: Any = None,
        key: str = "reduction",
        positions: Sequence[int] | None = None,
        workers: int = 1,
        deadline: float | None = None,
        tracer: Any = None,
        stats: SpeculationStats | None = None,
    ) -> None:
        self.key = key
        self.oracle = oracle
        self.pool = pool
        self.deadline = deadline
        self.error: BaseException | None = None
        self.degraded: str | None = None
        self.detail = ""
        if stats is None:
            stats = SpeculationStats()
        if pool is not None:
            stats.mode = "pool"
            stats.workers = workers
        self.engine = SpeculativeReduction(
            items,
            oracle,
            positions=positions,
            key=key,
            tracer=tracer,
            stats=stats,
        )

    @property
    def active(self) -> bool:
        return self.error is None and not self.engine.done

    # -- drive ---------------------------------------------------------------------

    def run(self) -> None:
        """Drive the engine to completion: over the pool, or inline one
        candidate at a time."""
        if self.pool is not None:
            run_sessions([self])
            return
        engine = self.engine
        try:
            while not engine.done:
                if self.deadline is not None and time.monotonic() >= self.deadline:
                    engine.finish_timed_out()
                    break
                for candidate in engine.take_dispatch(1):
                    record = self.oracle.decide(engine.materialize(candidate))
                    engine.deliver(candidate.sid, bool(record["verdict"]), record)
                engine.commit_ready()
            engine.finalize()
        except Exception as exc:  # noqa: BLE001 - surfaced by finalize()
            self.error = exc

    def deliver(self, candidate: "_Candidate", payload: tuple) -> None:
        """Hand one worker reply, a decision record, to the engine."""
        from repro.perf.pool import WorkerProbeError, reply_value

        try:
            record = reply_value(payload)
        except WorkerProbeError as exc:
            self.error = exc
        else:
            self.engine.deliver(candidate.sid, bool(record["verdict"]), record)

    def commit(self) -> bool:
        """Commit at the serial frontier; True if anything committed."""
        try:
            return self.engine.commit_ready()
        except Exception as exc:  # noqa: BLE001 - surfaced by finalize()
            self.error = exc
            return False

    # -- finalize ------------------------------------------------------------------

    def finalize(self) -> ReductionResult:
        """The reduction result.  A policy-less session re-raises a probe
        error; a fault-tolerant one that failed a decision stops at the
        best-so-far sequence (the last committed acceptance) and records
        why in ``degraded``/``detail`` — its pipeline reports that once for
        the whole run."""
        if self.error is not None:
            if not self.oracle.fault_tolerant:
                raise self.error
            from repro.robustness.reduction import degradation

            self.degraded, self.detail = degradation(self.error)
        result = self.engine.result()
        if self.degraded is not None:
            result.history = []  # best-so-far, not a finished ddmin trajectory
        return result


def run_sessions(sessions: Sequence[ReductionSession]) -> None:
    """Drive *sessions* until every engine finishes (or errors out): inline
    sessions one after another, pooled ones together over their one shared
    :class:`~repro.perf.pool.WorkerPool`.

    Fairness: dispatch rotates round-robin across active sessions, one
    candidate per turn, so a large reduction cannot starve a small one.
    A hard worker death is the pool's business (see
    :mod:`repro.perf.pool`): every lost candidate still gets its verdict —
    verdicts are pure functions of the candidate, so re-probing is sound —
    and the sessions it hit count one ``worker_recoveries`` each.
    """
    for session in sessions:
        if session.pool is None:
            session.run()
    sessions = [s for s in sessions if s.pool is not None]
    if not sessions:
        return
    pool = sessions[0].pool
    submitted: dict[int, tuple[ReductionSession, _Candidate]] = {}
    rotation = 0

    while True:
        now = time.monotonic()
        for session in sessions:
            if session.active and session.deadline is not None and now >= session.deadline:
                session.engine.finish_timed_out()
        active = [s for s in sessions if s.active]
        for session in active:
            session.commit()
        active = [s for s in sessions if s.active]
        if not active and not submitted:
            break

        capacity = pool.capacity - len(submitted)
        if active and capacity > 0:
            progressed = True
            while capacity > 0 and progressed:
                progressed = False
                for offset in range(len(active)):
                    if capacity <= 0:
                        break
                    session = active[(rotation + offset) % len(active)]
                    if not session.active:
                        continue
                    for candidate in session.engine.take_dispatch(1):
                        ticket = pool.submit(session.key, [candidate.indices])
                        submitted[ticket] = (session, candidate)
                        capacity -= 1
                        progressed = True
                    if session.commit():
                        progressed = True  # an acceptance opened new candidates
                rotation += 1
        if not submitted:
            continue  # engines progressed through memo/lookup commits alone

        timeout = None
        deadlines = [s.deadline for s in active if s.deadline is not None]
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        touched: dict[int, ReductionSession] = {}
        recovered: dict[int, ReductionSession] = {}
        for ticket, ((payload,), was_lost) in pool.wait(timeout).items():
            session, candidate = submitted.pop(ticket)
            if was_lost:
                recovered[id(session)] = session
            if session.active:
                session.deliver(candidate, payload)
                touched[id(session)] = session
        for session in recovered.values():
            session.engine.stats.worker_recoveries += 1
        for session in touched.values():
            session.commit()

    for session in sessions:
        if session.error is None:
            session.engine.finalize()
