"""Fault-tolerant reduction: a supervised, flake-hardened, journaled wrapper
pipeline around the delta-debugging loop (beyond the paper; ReduKtor-style).

The paper's "almost free" reduction (§3.4, Theorem 2.6) holds only while the
interestingness test behaves.  In production it does not: a hung probe
freezes the reducer, a hard crash loses every accepted chunk, and a flaky
verdict silently breaks the 1-minimality guarantee — it can even *accept* a
removal the bug does not survive, returning a "reduced" sequence that is not
interesting at all.  This module gives the reducer the same fault envelope
the campaign phase got in the robustness layer:

* **Supervised probes** — candidate probes route through the harness's
  :class:`~repro.robustness.supervisor.SupervisedTarget` (child process,
  wall-clock timeout, ``RLIMIT_AS`` cap).  A probe-level fault (timeout /
  OOM / worker death) is retried with the shared backoff policy and, once
  the ``fault_retries`` budget is spent, counts as *not interesting* —
  never as acceptance.  Each supervised probe's timeout is additionally
  clamped to ``min(probe_timeout, remaining reduction budget)``, closing
  the gap where the reduction engine only checks its deadline *between*
  candidates.
* **Flake-hardened oracle** — :class:`FlakeHardenedOracle` votes instead of
  trusting single probes where it matters: a removal is accepted only after
  ``accept_votes`` unanimous probes (a wrong acceptance corrupts the
  result; a wrong rejection merely costs minimality), and once any
  disagreement has been observed, rejections are double-checked by a
  best-of-``reject_votes`` majority.  The oracle is the reduction engine's
  commit hook (:class:`~repro.perf.parallel_reduce.ReductionSession`):
  decisions are made inline or in pool workers and folded in serial order
  through one ``commit``, and the accounting lands in
  ``ReductionResult.stability``.
* **Journal + resume** — every decision is appended to a
  :class:`~repro.robustness.journal.ReductionJournal` (fsync per line), so
  a reduction killed mid-round resumes to a byte-identical result and
  journal; composes with the perf layer's replay-prefix cache.
* **Graceful degradation** — budget exhaustion, a persistently unresponsive
  target, or an oracle-infrastructure failure returns the best-so-far
  subsequence with a structured ``degraded`` reason instead of raising,
  and emits ``reduce.fault`` / ``reduce.degraded`` tracer events plus
  metrics counters so ``repro-report`` shows reduction fault totals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.reducer import ReductionResult
from repro.observability import as_tracer
from repro.robustness.config import ReductionPolicy
from repro.robustness.journal import ReductionJournal
from repro.robustness.retry import DecorrelatedJitter, backoff_sleep


class ProbeVerdict(NamedTuple):
    """One raw oracle probe: the verdict plus any probe-level fault.

    ``fault`` is an :class:`~repro.compilers.base.OutcomeKind` value string
    (``"timeout"`` / ``"resource"`` / ``"worker-crash"``) when the probe
    misbehaved as a *process*; ``None`` for a clean verdict.  A probe whose
    fault kind *is* the finding's bug (reducing a ``timeout`` finding, say)
    reports ``interesting=True`` with ``fault=None`` — the fault is the
    signal there, not noise.
    """

    interesting: bool
    fault: str | None = None


#: A verdict test maps a candidate subsequence to a :class:`ProbeVerdict`.
VerdictTest = Callable[[Sequence], "ProbeVerdict"]


class ReductionAborted(RuntimeError):
    """Raised internally when the oracle gives up on the target; callers of
    :func:`reduce_with_faults` never see it — it degrades to best-so-far."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail


def degradation(exc: Exception) -> tuple[str, str]:
    """The ``(degraded, detail)`` pair a failed decision stops a reduction
    with: an abort's own reason, else ``oracle-error: <type>`` (a worker's
    error keeps the type it had in the worker)."""
    if isinstance(exc, ReductionAborted):
        return exc.reason, exc.detail
    kind = getattr(exc, "original_type", None) or type(exc).__name__
    return f"oracle-error: {kind}", str(exc)


@dataclass
class OracleStability:
    """Work and flakiness accounting for one fault-tolerant reduction."""

    probes: int = 0  #: raw verdict-test invocations (votes and retries included)
    escalation_probes: int = 0  #: probes beyond the first per candidate
    fault_retries: int = 0  #: probes re-run after a supervision fault
    disagreements: int = 0  #: votes that contradicted an earlier probe
    faulted_candidates: int = 0  #: candidates rejected on fault-budget exhaustion
    journal_hits: int = 0  #: decisions replayed from a resumed journal
    escalated: bool = False  #: a disagreement switched rejections to voting
    faults: dict[str, int] = field(default_factory=dict)  #: fault kind -> count

    @property
    def fault_total(self) -> int:
        return sum(self.faults.values())

    def to_json(self) -> dict:
        """The accounting attached to ``ReductionResult.stability``.

        ``journal_hits`` is deliberately excluded: a resumed run replays
        decisions from the journal instead of re-probing, so the hit count
        is the one counter that *legitimately* differs between a resumed
        and an uninterrupted reduction — everything else (probes, votes,
        faults, disagreements) is folded back from the journal records and
        matches exactly.
        """
        return {
            "probes": self.probes,
            "escalation_probes": self.escalation_probes,
            "fault_retries": self.fault_retries,
            "disagreements": self.disagreements,
            "faulted_candidates": self.faulted_candidates,
            "escalated": self.escalated,
            "faults": dict(sorted(self.faults.items())),
        }


class FlakeHardenedOracle:
    """An :data:`~repro.core.reducer.InterestingnessTest` that survives
    faulty and flaky verdict tests, shaped as the reduction engine's commit
    hook.

    * :meth:`decide` runs the adaptive probe/vote/retry pipeline described
      in the module docstring for one candidate and returns its decision
      record (what the journal stores).  It touches decision state only —
      sticky escalation and the fault streak — so a pool worker can decide
      on the parent's behalf.  An abort or an oracle error travels in the
      record and is raised at commit.
    * :meth:`lookup` resolves a candidate without probing (a journaled
      decision being resumed, or a settled memo).  It is read-only: a
      speculative candidate may never commit.
    * :meth:`commit` folds one decision into the reduction in serial order:
      memo, stability accounting, fault metrics and events, and the journal
      append.

    Inline and pool-backed reductions fold every decision through the same
    :meth:`commit`, so stability and journal bytes match across worker
    counts.  Calling the oracle is lookup-or-decide, then commit.
    """

    def __init__(
        self,
        verdict_test: VerdictTest,
        policy: ReductionPolicy,
        *,
        journal: ReductionJournal | None = None,
        resume_records: dict[str, dict] | None = None,
        supervised_target: Any = None,
        tracer: Any = None,
        metrics: Any = None,
        replay_stats: Any = None,
        key_fn: Callable[[Sequence], str] | None = None,
    ) -> None:
        self.verdict_test = verdict_test
        self.policy = policy
        self.journal = journal
        #: Candidate -> journal/memo key.  The pass pipeline injects a
        #: pass-scoped key function so decisions from different passes never
        #: collide in a shared journal.
        self._key = key_fn or partial(ReductionJournal.candidate_key, memo={})
        self._resume = dict(resume_records or {})
        self._target = supervised_target
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self._stats = replay_stats  # a perf ReplayStats, shared with the replayer
        self.stability = OracleStability()
        #: Fault-retry backoff jitter (None = deterministic exponential).
        #: Seeded per policy, so identical runs sleep identically — only the
        #: *fleet-wide alignment* of sleeps is broken, never reproducibility.
        self._jitter = (
            DecorrelatedJitter(
                policy.retry_backoff, seed=policy.retry_jitter_seed
            )
            if policy.retry_jitter_seed is not None
            else None
        )
        self._memo: dict[str, bool] = {}
        self._escalated = False
        self._fault_streak = 0
        #: Wall-clock deadline (monotonic); supervised probe timeouts are
        #: clamped to what remains of it.
        self.deadline: float | None = None
        self.last_verdict_faulted = False  #: last decision fell to the fault budget

    # -- InterestingnessTest surface ----------------------------------------------

    def __call__(self, candidate: Sequence) -> bool:
        return self._settle(candidate, "candidate")

    def verify(self, sequence: Sequence) -> bool:
        """Decide the full input sequence with escalated (voted) scrutiny.

        Wrongly rejecting the input aborts the whole reduction, so the
        verify probe gets the same protection an acceptance does — without
        flipping the oracle into sticky escalated mode.
        """
        return self._settle(sequence, "verify")

    def check_input(self, sequence: Sequence) -> tuple[str, str] | None:
        """:meth:`verify` for a reduction's first step: ``None`` when the
        input is interesting, else the ``(degraded, detail)`` reason that
        stops the reduction before it starts.  A genuinely non-interesting
        input raises ``ValueError`` — a caller bug, not a target fault."""
        try:
            if self.verify(sequence):
                return None
        except Exception as exc:  # noqa: BLE001 - e.g. a failing journal write
            return degradation(exc)
        if self.last_verdict_faulted:
            return "verify-faulted", ""
        raise ValueError("the full transformation sequence is not interesting")

    def _settle(self, candidate: Sequence, mode: str) -> bool:
        hit = self.lookup(candidate)
        if hit is None:
            return self.commit(candidate, self.decide(candidate, mode=mode))
        return self.commit(candidate, hit[1], hit[2])

    # -- the engine's commit hook --------------------------------------------------

    def lookup(self, candidate: Sequence) -> tuple[bool, dict | None, str] | None:
        """``(verdict, record, source)`` for a candidate decided without
        probing — a resumed journal record or a settled memo — else
        ``None``.  Read-only."""
        key = self._key(candidate)
        record = self._resume.get(key)
        if record is not None:
            return bool(record["verdict"]), record, "journal"
        if key in self._memo:
            return self._memo[key], None, "memo"
        return None

    def commit(
        self, candidate: Sequence, record: dict | None, source: str = "probe"
    ) -> bool:
        """Fold one decision into the reduction, in serial order, and return
        the final verdict.

        The memo wins first: duplicate-content candidates can be in flight
        at once (a repeated ddmin pass regenerates them) and only the first
        may journal.  Otherwise the record's accounting is folded — resumed
        journal records are replayed, fresh ones are journaled.  An aborted
        decision raises :class:`ReductionAborted` after its accounting is
        folded.
        """
        if self._stats is not None:
            self._stats.requests += 1
        key = self._key(candidate)
        self.last_verdict_faulted = False
        if key in self._memo:
            if self._stats is not None:
                self._stats.memo_hits += 1
            return self._memo[key]
        replayed = source == "journal"
        self._fold(record, len(candidate), replayed=replayed)
        if "aborted" in record:
            raise ReductionAborted(*record["aborted"])
        if replayed:
            self._resume.pop(key, None)
        else:
            record["key"] = key
            record["n"] = len(candidate)
            if self.journal is not None:
                self.journal.append(record)
        verdict = self._memo[key] = bool(record["verdict"])
        return verdict

    # -- decision pipeline ---------------------------------------------------------

    def decide(self, candidate: Sequence, *, mode: str = "candidate") -> dict:
        """Probe *candidate* to a decision record (``mode="verify"`` for the
        input-verification majority)."""
        record = {
            "v": 1,
            "verdict": False,
            "probes": 0,
            "escalations": 0,
            "fault_retries": 0,
            "disagreements": 0,
            "faults": {},
            "faulted": False,
        }
        try:
            if mode == "verify":
                # Wrongly rejecting the input aborts the whole reduction (and
                # a wrongly *accepted* non-interesting input merely fails to
                # shrink — every removal gets rejected — which is safe), so
                # the verify probe is decided by a best-of-N majority, not
                # unanimity.
                verdict = self._majority(candidate, record)
            else:
                verdict = self._probe(candidate, record, escalation=False)
                if verdict or (verdict is not None and self._escalated):
                    verdict = self._vote(candidate, record, verdict)
        except Exception as exc:  # noqa: BLE001 - raised at commit, in order
            record["aborted"] = list(degradation(exc))
            return record
        record["faulted"] = verdict is None
        record["verdict"] = bool(verdict)
        return record

    def _majority(self, candidate: Sequence, record: dict) -> bool | None:
        """Best-of-``reject_votes`` majority; ``None`` when *every* probe
        fell to the fault budget (pure infrastructure failure)."""
        majority = max(1, self.policy.reject_votes) // 2 + 1
        trues = falses = clean = 0
        while trues < majority and falses < majority:
            vote = self._probe(
                candidate, record, escalation=(trues + falses) > 0
            )
            if vote is None:
                falses += 1  # a faulted probe can never vote "interesting"
            else:
                clean += 1
                if vote:
                    trues += 1
                else:
                    falses += 1
        if clean == 0:
            return None
        if trues and falses:
            self._disagree(record)
        return trues >= majority

    def _vote(self, candidate: Sequence, record: dict, first: bool) -> bool:
        # Rejection rescue (escalated mode only): the first probe said "not
        # interesting", but the oracle has already been caught lying — take a
        # best-of-N majority before giving up on the removal.
        if not first:
            majority = max(1, self.policy.reject_votes) // 2 + 1
            trues, falses = 0, 1
            while trues < majority and falses < majority:
                vote = self._probe(candidate, record, escalation=True)
                if vote:
                    trues += 1
                else:  # a fault-budgeted probe (None) votes "not interesting"
                    falses += 1
            if falses >= majority:
                return False
            self._disagree(record)  # the initial rejection was outvoted
        # Acceptance confirmation: the initial True (or the rescue majority)
        # plus accept_votes-1 unanimous confirmations.  Any dissent — or any
        # fault — rejects: a false rejection only costs minimality, a false
        # acceptance corrupts the result.
        for _ in range(max(1, self.policy.accept_votes) - 1):
            vote = self._probe(candidate, record, escalation=True)
            if vote is None:
                return False
            if not vote:
                self._disagree(record)
                return False
        return True

    def _probe(
        self, candidate: Sequence, record: dict, *, escalation: bool
    ) -> bool | None:
        """One logical probe with fault retries.

        Returns the clean verdict, or ``None`` when the fault-retry budget
        is exhausted (never acceptance).  Raises :class:`ReductionAborted`
        once ``unresponsive_after`` consecutive probes have faulted.
        """
        for attempt in range(max(0, self.policy.fault_retries) + 1):
            backoff_sleep(attempt, self.policy.retry_backoff, jitter=self._jitter)
            if attempt:
                record["fault_retries"] += 1
            self._clamp_probe_timeout()
            verdict = self.verdict_test(candidate)
            record["probes"] += 1
            if escalation:
                record["escalations"] += 1
            if verdict.fault is None:
                self._fault_streak = 0
                return bool(verdict.interesting)
            self._fault_streak += 1
            record["faults"][verdict.fault] = record["faults"].get(verdict.fault, 0) + 1
            if (
                self.policy.unresponsive_after is not None
                and self._fault_streak >= self.policy.unresponsive_after
            ):
                raise ReductionAborted(
                    "target-unresponsive",
                    f"{self._fault_streak} consecutive probe faults "
                    f"(last: {verdict.fault})",
                )
        return None

    def _disagree(self, record: dict) -> None:
        record["disagreements"] += 1
        self._escalated = True

    def _fold(self, record: dict, length: int, *, replayed: bool) -> None:
        """Add one decision record's accounting to this reduction's
        stability — and, for a decision made this run (not replayed from
        the journal), its fault metrics and ``reduce.fault`` events."""
        s = self.stability
        s.probes += record.get("probes", 0)
        s.escalation_probes += record.get("escalations", 0)
        s.fault_retries += record.get("fault_retries", 0)
        s.disagreements += record.get("disagreements", 0)
        for kind, count in (record.get("faults") or {}).items():
            s.faults[kind] = s.faults.get(kind, 0) + count
            if replayed:
                continue
            if self.metrics is not None:
                self.metrics.inc("reduce.faults", count)
                self.metrics.inc(f"reduce.faults.{kind}", count)
            if self.tracer.enabled:
                for _ in range(count):
                    self.tracer.emit("reduce.fault", kind=kind, candidate_length=length)
        if replayed:
            s.journal_hits += 1
        if record.get("faulted"):
            s.faulted_candidates += 1
            self.last_verdict_faulted = True
        if record.get("disagreements"):
            self._escalated = True
            s.escalated = True

    def _clamp_probe_timeout(self) -> None:
        if self._target is None:
            return
        if self.deadline is None:
            self._target.set_timeout_override(None)
            return
        remaining = self.deadline - time.monotonic()
        self._target.set_timeout_override(max(0.001, remaining))


def _apply_degradation(
    result: ReductionResult,
    stability: OracleStability,
    degraded: str | None,
    detail: str,
    tracer: Any,
    metrics: Any,
) -> ReductionResult:
    """The pass pipeline's fault-tolerant tail: attach ``degraded`` /
    ``stability`` and emit the degradation metrics + tracer event."""
    if result.timed_out and degraded is None:
        degraded = "budget-exhausted"
    result.degraded = degraded
    result.stability = stability.to_json()
    if degraded is not None:
        if metrics is not None:
            metrics.inc("reduce.degraded")
            metrics.inc(f"reduce.degraded.{degraded.split(':', 1)[0]}")
        tracer.emit(
            "reduce.degraded",
            reason=degraded,
            detail=detail,
            initial_length=result.initial_length,
            final_length=result.final_length,
            faults=stability.fault_total,
        )
    return result


def reduce_with_faults(
    transformations: Sequence,
    verdict_test: VerdictTest,
    policy: ReductionPolicy | None = None,
    *,
    journal: "ReductionJournal | str | None" = None,
    resume: bool = False,
    supervised_target: Any = None,
    tracer: Any = None,
    metrics: Any = None,
    replay_stats: Any = None,
    workers: int = 1,
    window: int | None = None,
) -> ReductionResult:
    """Delta-debug *transformations* through the fault-tolerant pipeline.

    Semantics on a deterministic, well-behaved target are identical to
    :func:`~repro.core.reducer.reduce_transformations` (same 1-minimal
    sequence, same ``tests_run`` / ``chunks_removed``); the extra machinery
    only changes what happens when the oracle hangs, dies, or lies.  The
    returned :class:`~repro.core.reducer.ReductionResult` carries the
    oracle's ``stability`` accounting and, when the run could not complete
    cleanly, a structured ``degraded`` reason:

    * ``"budget-exhausted"`` — ``policy.max_seconds`` ran out (best-so-far,
      still interesting, not guaranteed 1-minimal);
    * ``"verify-faulted"`` — the input-verification probe fell to the fault
      budget, so nothing could be tested at all (the input is returned);
    * ``"target-unresponsive"`` — ``policy.unresponsive_after`` consecutive
      probes faulted;
    * ``"oracle-error: <type>"`` — the verdict test itself raised (e.g. the
      supervisor machinery died); best-effort, never propagated.

    A genuinely non-interesting input still raises ``ValueError`` exactly as
    the raw reducer does — that is a caller bug, not a target fault.

    This is ``PassPipeline(["ddmin"])`` in fault mode: one ddmin leg on the
    reduction engine (:class:`~repro.perf.parallel_reduce.ReductionSession`)
    with a :class:`FlakeHardenedOracle` as its commit hook.  ``workers > 1``
    decides candidates speculatively in worker processes; decisions commit
    in serial scan order, so the result *and* the journal are
    byte-identical to a serial run's for a deterministic oracle.  An oracle
    that cannot be shipped to worker processes (unpicklable and no
    ``fork``) silently runs inline.
    """
    from repro.reduce import PassPipeline, PipelineContext, ReductionConfig

    ctx = PipelineContext(
        verdict_test=verdict_test,
        config=ReductionConfig(
            workers=workers,
            window=window,
            policy=policy or ReductionPolicy(),
        ),
        journal=journal,
        resume=resume,
        supervised_target=supervised_target,
        tracer=tracer,
        metrics=metrics,
        replay_stats=replay_stats,
    )
    return PassPipeline(["ddmin"]).run(transformations, ctx)
