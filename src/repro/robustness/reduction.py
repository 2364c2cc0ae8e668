"""The reduction oracle: a supervised, flake-hardened, journaled envelope
around the delta-debugging loop (beyond the paper; ReduKtor-style).

The paper's "almost free" reduction (§3.4, Theorem 2.6) holds only while the
interestingness test behaves.  In production it does not: a hung probe
freezes the reducer, a hard crash loses every accepted chunk, and a flaky
verdict silently breaks the 1-minimality guarantee — it can even *accept* a
removal the bug does not survive, returning a "reduced" sequence that is not
interesting at all.  This module gives the reducer the same fault envelope
the campaign phase got in the robustness layer.

Every probe of a :class:`~repro.reduce.PassPipeline` decides through one
:class:`FlakeHardenedOracle`.  A run without a
:class:`~repro.robustness.ReductionPolicy` uses the :data:`TRUSTING`
constants — one probe per decision, no retries, no votes — and lets every
probe error propagate: that is the paper's plain delta-debugging loop.  A
run with a policy (the harness sets one whenever it supervises its targets,
the :class:`~repro.reduce.ReductionConfig` carries one, or the call
journals) is fault-tolerant:

* **Supervised probes** — candidate probes route through the harness's
  :class:`~repro.robustness.supervisor.SupervisedTarget` (child process,
  wall-clock timeout, ``RLIMIT_AS`` cap).  A probe-level fault (timeout /
  OOM / worker death) is retried with the shared backoff policy and, once
  the ``fault_retries`` budget is spent, counts as *not interesting* —
  never as acceptance.  Each supervised probe's timeout is additionally
  clamped to ``min(probe_timeout, remaining reduction budget)`` (the
  config's ``max_seconds``), closing the gap where the reduction engine
  only checks its deadline *between* candidates.
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
  :class:`~repro.robustness.journal.ReductionJournal` and flushed to the
  OS before the next probe (the pass pipeline fsyncs them once per pass),
  so a reduction killed mid-round resumes to a byte-identical result and
  journal; composes with the perf layer's replay-prefix cache.
* **Graceful degradation** — budget exhaustion (``"budget-exhausted"``), a
  verify probe lost to the fault budget (``"verify-faulted"``), a
  persistently unresponsive target (``"target-unresponsive"``), or an
  oracle-infrastructure failure (``"oracle-error: <type>"``) returns the
  best-so-far subsequence with a structured ``degraded`` reason instead of
  raising, and emits ``reduce.fault`` / ``reduce.degraded`` tracer events
  plus metrics counters so ``repro-report`` shows reduction fault totals.
  A genuinely non-interesting input still raises ``ValueError``, as the
  raw reducer does: that is a caller bug, not a target fault.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Hashable, NamedTuple, Sequence

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


#: A verdict test maps a candidate subsequence to a :class:`ProbeVerdict`
#: (or to a boolean: a clean verdict, as a plain interestingness test gives).
VerdictTest = Callable[[Sequence], "ProbeVerdict | bool"]

#: What a policy-less oracle decides by: one probe per decision, as the raw
#: reducer trusts its interestingness test.
TRUSTING = ReductionPolicy(
    fault_retries=0, accept_votes=1, reject_votes=1, unresponsive_after=None
)


class ReductionAborted(RuntimeError):
    """Raised internally when the oracle gives up on the target; a pipeline's
    caller never sees it — it degrades to best-so-far."""

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
    * :attr:`key` maps a candidate to its journal/memo key; the engine
      computes it once per candidate and hands it to both hooks below.
    * :meth:`lookup` resolves a key without probing (a journaled decision
      being resumed, or a settled memo).  It is read-only: a speculative
      candidate may never commit.
    * :meth:`commit` folds one decision into the reduction in serial order:
      memo, stability accounting, fault metrics and events, and the journal
      append.

    Inline and pool-backed reductions fold every decision through the same
    :meth:`commit`, so stability and journal bytes match across worker
    counts.  Calling the oracle is lookup-or-decide, then commit.

    Without a *policy* the oracle decides by the :data:`TRUSTING` constants
    and is not :attr:`fault_tolerant`: an error in a probe or in the
    journal propagates out of the call that hit it instead of becoming a
    degradation.
    """

    def __init__(
        self,
        verdict_test: VerdictTest,
        policy: ReductionPolicy | None = None,
        *,
        journal: ReductionJournal | None = None,
        resume_records: dict[str, dict] | None = None,
        supervised_target: Any = None,
        tracer: Any = None,
        metrics: Any = None,
        replay_stats: Any = None,
        key_fn: Callable[[Sequence], Hashable] | None = None,
    ) -> None:
        self.verdict_test = verdict_test
        #: Does a failed decision degrade the reduction (``True``) or raise?
        self.fault_tolerant = policy is not None
        self.policy = policy = policy or TRUSTING
        self.journal = journal
        #: Candidate -> journal/memo key.  The pass pipeline injects a
        #: pass-scoped key function so decisions from different passes never
        #: collide in a shared journal.
        self.key = key_fn or partial(ReductionJournal.candidate_key, memo={})
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
        self._memo: dict[Hashable, bool] = {}
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
            if not self.fault_tolerant:
                raise
            return degradation(exc)
        if self.last_verdict_faulted and self.fault_tolerant:
            return "verify-faulted", ""
        raise ValueError("the full transformation sequence is not interesting")

    def _settle(self, candidate: Sequence, mode: str) -> bool:
        key = self.key(candidate)
        hit = self.lookup(key)
        if hit is None:
            record, source = self.decide(candidate, mode=mode), "probe"
        else:
            _, record, source = hit
        return self.commit(key, len(candidate), record, source)

    # -- the engine's commit hook --------------------------------------------------

    def lookup(self, key: Hashable) -> tuple[bool, dict | None, str] | None:
        """``(verdict, record, source)`` for the candidate *key* names when
        it is decided without probing — a resumed journal record or a
        settled memo — else ``None``.  Read-only."""
        record = self._resume.get(key)
        if record is not None:
            return bool(record["verdict"]), record, "journal"
        if key in self._memo:
            return self._memo[key], None, "memo"
        return None

    def commit(
        self, key: Hashable, length: int, record: dict | None, source: str = "probe"
    ) -> bool:
        """Fold one decision for the candidate *key* names (of *length*
        elements) into the reduction, in serial order, and return the final
        verdict.

        The memo wins first: duplicate-content candidates can be in flight
        at once (a repeated ddmin pass regenerates them) and only the first
        may journal.  Otherwise the record's accounting is folded — resumed
        journal records are replayed, fresh ones are journaled.  An aborted
        decision raises :class:`ReductionAborted` after its accounting is
        folded.
        """
        if self._stats is not None:
            self._stats.requests += 1
        self.last_verdict_faulted = False
        if key in self._memo:
            if self._stats is not None:
                self._stats.memo_hits += 1
            return self._memo[key]
        replayed = source == "journal"
        self._fold(record, length, replayed=replayed)
        if "aborted" in record:
            raise ReductionAborted(*record["aborted"])
        if replayed:
            self._resume.pop(key, None)
        else:
            record["key"] = key
            record["n"] = length
            if self.journal is not None:
                # Flushed, not fsync'd: the pipeline syncs once per pass.
                self.journal.append(record)
        verdict = self._memo[key] = bool(record["verdict"])
        return verdict

    # -- decision pipeline ---------------------------------------------------------

    def decide(self, candidate: Sequence, *, mode: str = "candidate") -> dict:
        """Probe *candidate* to a decision record (``mode="verify"`` for the
        input-verification majority).  A probe error travels in the record
        when the oracle is fault-tolerant and propagates otherwise."""
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
            if not self.fault_tolerant:
                raise
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
            verdict = _as_probe_verdict(self.verdict_test(candidate))
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


def _as_probe_verdict(verdict: Any) -> ProbeVerdict:
    """A verdict test's answer as a :class:`ProbeVerdict`: any other value
    is a clean verdict by its truth, as a plain interestingness test's."""
    if isinstance(verdict, ProbeVerdict):
        return verdict
    return ProbeVerdict(bool(verdict))


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
