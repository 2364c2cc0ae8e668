"""The creduce-style pass scheduler (beyond the paper; §3.4 + creduce).

Creduce structures reduction as many small *passes* run in groups to a
global fixpoint under a give-up budget (``GIVEUP_CONSTANT``); ReduKtor
showed that combining general delta passes with domain-specific cleanup
passes beats either alone.  :class:`PassPipeline` brings that scheduling to
the transformation-sequence reducer, and every reduction runs as one: the
paper's reducer is ``PassPipeline(["ddmin"])``, the default
:class:`ReductionConfig`.

* **Pass protocol** — a pass has a ``name``, a ``stage`` (``"sequence"``
  passes edit the transformation list, ``"module"`` passes edit the
  materialized SPIR-V module after the sequence has stabilised), and a
  ``run(run)`` method that drives the :class:`PassRun` probe surface.
* **Scheduling** — each pass runs to its *own* completion; the scheduler
  re-invokes a pass only when another pass has since changed the sequence
  (a ``pending`` set).  The global fixpoint is reached when every pass has
  run on the current sequence without any other pass invalidating it.
  This makes ``PassPipeline([DdminPass()])`` invoke ddmin exactly once —
  byte-identical to bare :func:`~repro.core.reducer.reduce_transformations`
  — and terminates because every accepted proposal strictly shrinks a
  well-founded measure (sequence length, payload lines, constant
  magnitudes, module instructions).
* **Give-up budget** — greedy passes auto-reject (without probing) once
  ``giveup`` *consecutive* rejections accumulate in one invocation, the
  creduce escape hatch for passes grinding on an oracle that has stopped
  saying yes.  The ddmin pass is exempt: its halving schedule already
  bounds it, and budgeting it serially but not inside pool workers would
  break cross-worker-count byte-identity.
* **Yielded legs** — a ddmin leg is one :class:`~repro.perf.parallel_reduce.
  ReductionSession` that the pipeline *yields* to its caller instead of
  running it: :meth:`PassPipeline.steps` is a generator that yields each
  leg's session and, once the caller has run it, absorbs its result.
  :meth:`PassPipeline.run` drives its own legs one by one;
  :meth:`~repro.core.harness.Harness.reduce_all` drives the current legs of
  every finding through one :func:`~repro.perf.parallel_reduce.
  run_sessions` over a shared worker pool, round-robin.  A leg runs inline,
  one candidate at a time, or speculatively over a pool — the caller's, or,
  for ``workers > 1`` without one, its own.  A harness-built pool rebuilds the
  *original* finding sequence in its workers, so the leg hands the session
  the pipeline's positions map as its base; once a pass has *mutated* an
  element in place (payload shrinking) the map is void and later ddmin legs
  run inline — cheap, because they happen after the big first leg.
* **One verdict route + journal** — every probe (a ddmin leg's, a greedy
  pass's, a module pass's, the verify probe) decides through a per-pass
  :class:`~repro.robustness.reduction.FlakeHardenedOracle` sharing one
  :class:`~repro.robustness.journal.ReductionJournal`.  Without a policy the
  oracles trust one probe per decision, probe errors propagate and the
  result carries no ``stability`` or ``degraded``; with one they retry,
  vote and degrade.  Decisions are keyed by ``sha1(pass_name +
  candidate_key)`` (:func:`pass_scoped_key`) so passes never collide and a
  SIGKILL'd pipeline resumes byte-identically mid-pass.  The run holds the
  journal open and fsyncs it once at each pass end and once at the run
  end (a group commit: every decision reaches the OS as it is made).  A
  pipeline-config record after the header pins the pass list and budget;
  resuming with a different configuration raises ``ValueError``.  A
  ddmin-only pipeline has nothing to pin (ddmin ignores the budget) and
  keeps the classic formats: no config record, unscoped keys with the
  verify probe in the ddmin scope, no per-pass stats in the result —
  unless the journal it resumes already holds a config record, whose
  format it then keeps.
"""

from __future__ import annotations

import hashlib
import time
from functools import partial
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generator, Iterator, Protocol, Sequence
from typing import runtime_checkable

from repro.core.reducer import ReductionResult
from repro.observability import as_tracer
from repro.perf.parallel_reduce import SpeculationStats

#: Creduce's GIVEUP_CONSTANT: consecutive rejections before a greedy pass
#: is abandoned for this invocation.
DEFAULT_GIVEUP = 1000


@dataclass(frozen=True)
class ReductionConfig:
    """What stays fixed for a whole reduction run — the only way these knobs
    reach :meth:`~repro.core.harness.Harness.reduce_finding` and
    :meth:`~repro.core.harness.Harness.reduce_all`.

    No setting is silently dropped: a combination that would ignore one
    raises ``ValueError`` here.
    """

    #: The **creduce-style pass pipeline** (:class:`PassPipeline`) to run:
    #: pass names / instances (see :data:`~repro.reduce.DEFAULT_PASS_NAMES`),
    #: in groups to a global fixpoint.  The default is the paper's single
    #: ddmin pass.  Every other knob composes with it.
    passes: tuple = ("ddmin",)
    #: The pipeline's per-pass give-up budget: consecutive rejections before
    #: a greedy pass is abandoned (``None`` = :data:`DEFAULT_GIVEUP`).
    #: Needs a pass besides ddmin, which is never budgeted.
    giveup: int | None = None
    #: Probe candidates **speculatively in parallel** over this many
    #: persistent worker processes, each rebuilding the finding's probe from
    #: a picklable spec (``0`` = one per CPU).  Verdicts commit in serial
    #: scan order, so the reduced sequence, ``tests_run``, journal bytes and
    #: accepted-chunk history are byte-identical at every count for a
    #: deterministic oracle; only the wall clock changes.  A finding whose
    #: probe cannot be rebuilt in a worker runs inline.
    workers: int = 1
    #: Wall-clock budget for each finding's reduction: on exhaustion the
    #: result is the best-so-far interesting sequence (``timed_out`` set,
    #: not necessarily 1-minimal), never an exception; supervised probes are
    #: clamped to what remains of it.
    max_seconds: float | None = None
    #: A :class:`~repro.robustness.ReductionPolicy` — fault retries,
    #: flake-hardened voting, degradation thresholds.  Setting one makes the
    #: run fault-tolerant (see :meth:`resolve`); without one every decision
    #: trusts a single probe and probe errors propagate.
    policy: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", tuple(self.passes))
        pipeline = self.pipeline()  # unknown, duplicate or no passes raise here
        if self.giveup is not None and not pipeline.budgeted:
            raise ValueError(
                "giveup budgets the pass pipeline's greedy passes, never ddmin; "
                "it needs another pass (--giveup requires --reduce-passes "
                "with a pass besides ddmin)"
            )

    def pipeline(self) -> "PassPipeline":
        """The pass pipeline this config runs."""
        giveup = DEFAULT_GIVEUP if self.giveup is None else self.giveup
        return PassPipeline(self.passes, giveup=giveup)

    def resolve(
        self, *, robustness: Any = None, journaled: bool = False
    ) -> "ReductionConfig":
        """This config as one run uses it: ``workers=0`` becomes one per CPU,
        and a fault-tolerant run gets a policy.  A run is fault-tolerant when
        this config has a policy, the harness supervises its targets under
        *robustness* (whose backoff the default policy inherits), or the
        call journals (*journaled*: a journal or ``resume``).  Otherwise the
        run has no policy; either way the budget stays ``max_seconds``."""
        from repro.perf.parallel import default_worker_count

        policy = self.policy
        if policy is None and (robustness is not None or journaled):
            from repro.robustness.config import ReductionPolicy

            policy = (
                ReductionPolicy.from_robustness(robustness)
                if robustness is not None
                else ReductionPolicy()
            )
        return replace(
            self, workers=self.workers or default_worker_count(), policy=policy
        )


def pass_scoped_key(pass_name: str, base_key: str) -> str:
    """Journal/memo key for a candidate probed by *pass_name*.

    Scoping keeps one shared journal sound: two passes probing the same
    candidate content record independent decisions (their oracles may vote
    differently — e.g. the cleanup pass probes modules, not sequences), and
    resume replays each decision to the pass that made it.
    """
    payload = f"{pass_name}\x00{base_key}".encode("utf-8")
    return hashlib.sha1(payload).hexdigest()


@runtime_checkable
class ReductionPass(Protocol):
    """One reduction pass.  ``stage`` is ``"sequence"`` or ``"module"``;
    ``run`` drives the :class:`PassRun` probe surface and never touches
    pipeline state directly.  A pass with ddmin legs returns them
    (:meth:`PassRun.ddmin`) for the pipeline to yield to its caller."""

    name: str
    stage: str

    def run(self, run: "PassRun") -> Iterator | None: ...


@dataclass
class PassStats:
    """Deterministic per-pass accounting (no wall-clock fields, so stats are
    byte-identical across worker counts and resume)."""

    name: str
    runs: int = 0  #: scheduler invocations
    probes: int = 0  #: oracle/interestingness queries billed to this pass
    accepted: int = 0  #: accepted proposals
    removed: int = 0  #: sequence elements / payload lines / instructions shed
    gave_up: int = 0  #: invocations abandoned by the give-up budget

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "runs": self.runs,
            "probes": self.probes,
            "accepted": self.accepted,
            "removed": self.removed,
            "gave_up": self.gave_up,
        }


@dataclass
class PipelineResult(ReductionResult):
    """A :class:`~repro.core.reducer.ReductionResult` plus speculation
    accounting, per-pass stats and the cleanup pass's module (when it ran).
    A ddmin-only pipeline in the classic format carries no per-pass stats,
    so its JSON is the classic reducer's."""

    #: Work accounting of the pool-backed ddmin legs; ``None`` when every
    #: leg ran inline.  Observational, like ``replay_stats``: pooled and
    #: serial results compare byte-identical.
    speculation: SpeculationStats | None = None
    pass_stats: list[PassStats] = field(default_factory=list)
    #: The module after the ``cleanup`` (spirv-reduce) pass; ``None`` when no
    #: module pass ran.  Like ``replay_stats`` it is observational.
    cleaned_module: Any = None

    def to_json(self) -> dict:
        data = super().to_json()
        if self.pass_stats:
            data["passes"] = [stats.to_json() for stats in self.pass_stats]
        return data


@dataclass
class PipelineContext:
    """Everything a pipeline run probes through.

    ``verdict_test`` (candidate → :class:`~repro.robustness.reduction.
    ProbeVerdict`) is what every probe decides by; a boolean
    ``is_interesting`` test may be given in its place and is wrapped into
    one.  ``config`` carries the run's fixed knobs (passes, workers, budget,
    and the policy that makes the run fault-tolerant); the rest are the
    run's live objects.
    ``module_probe`` maps the final sequence to ``(module, module_verdict)``
    for module-stage passes; without it they are skipped.
    """

    is_interesting: Callable | None = None
    verdict_test: Callable | None = None
    config: ReductionConfig = field(default_factory=ReductionConfig)
    journal: Any = None
    resume: bool = False
    supervised_target: Any = None
    pool: Any = None
    pool_key: str = "reduction"
    tracer: Any = None
    metrics: Any = None
    replay_stats: Any = None
    module_probe: Callable | None = None


class PassRun:
    """One invocation of one pass: the probe surface the pass drives.

    A pass reads :attr:`current` (or :attr:`module`) and changes state only
    through :meth:`propose_subset` / :meth:`propose_replace` /
    :meth:`set_module` / :meth:`ddmin`, so the pipeline can account every
    probe, enforce the give-up budget and deadline, and keep the positions
    map consistent.
    """

    def __init__(self, execution: "_Execution", reduction_pass: ReductionPass) -> None:
        self._exec = execution
        self._pass = reduction_pass
        self.name = reduction_pass.name
        self.stats = execution.stats[reduction_pass.name]
        self.changed = False
        self.gave_up = False
        self._streak = 0

    # -- shared state ----------------------------------------------------------

    @property
    def current(self) -> list:
        """The current transformation sequence (do not mutate — propose)."""
        return self._exec.current

    @property
    def module(self) -> Any:
        """The materialized module (module-stage passes only)."""
        return self._exec.module

    # -- probing ---------------------------------------------------------------

    def test(self, candidate) -> bool:
        """Probe one candidate (sequence or module, by stage), budgeted."""
        giveup = self._exec.giveup
        if self.gave_up or self._exec.stopped:
            return False
        if self._exec.out_of_time():
            self._exec.timed_out = True
            return False
        self.stats.probes += 1
        verdict = self._exec.probe(self._pass, candidate)
        if verdict:
            self._streak = 0
        else:
            self._streak += 1
            if giveup is not None and self._streak >= giveup:
                self.gave_up = True
                self.stats.gave_up += 1
        return verdict

    def propose_subset(self, keep: Sequence[int]) -> bool:
        """Propose keeping exactly the elements at *keep* (current indices).
        Accepted removals update the positions map, so later ddmin legs can
        still ride the worker pool."""
        state = self._exec
        before = state.current
        candidate = [before[i] for i in keep]
        if len(candidate) >= len(before) or not candidate:
            return False  # no-op or empty candidate: never probed (§3.4)
        if not self.test(candidate):
            return False
        self.stats.accepted += 1
        self.stats.removed += len(before) - len(candidate)
        state.sequence_chunks += 1
        self.changed = True
        state.current = candidate
        if state.positions is not None:
            state.positions = [state.positions[i] for i in keep]
        return True

    def propose_replace(self, index: int, replacement) -> bool:
        """Propose replacing one element in place (payload shrinking).  An
        accepted replacement voids the positions map: the element no longer
        exists in the original sequence the worker pool rebuilds."""
        state = self._exec
        before = state.current
        trial = before[:index] + [replacement] + before[index + 1 :]
        if not self.test(trial):
            return False
        self.stats.accepted += 1
        self.changed = True
        state.current = trial
        state.positions = None
        return True

    def set_module(self, module: Any) -> None:
        """Install the (reduced) module a module-stage pass produced."""
        self._exec.module = module

    def ddmin(self) -> Iterator:
        """The chunked delta-debugging leg, for a pass to return from
        ``run``: yields the leg's one :class:`~repro.perf.parallel_reduce.
        ReductionSession` for the pipeline's caller to run, then absorbs its
        result.  Exempt from the give-up budget — its halving schedule
        already bounds it."""
        return self._exec.ddmin_leg(self)


class PassPipeline:
    """Run a configurable pass list in groups to a global fixpoint."""

    def __init__(
        self,
        passes: Sequence,
        *,
        giveup: int | None = DEFAULT_GIVEUP,
    ) -> None:
        from repro.reduce.passes import resolve_pass

        self.passes = [resolve_pass(p) for p in passes]
        if not self.passes:
            raise ValueError("a pass pipeline needs at least one pass")
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names: {names}")
        self.giveup = giveup

    @property
    def budgeted(self) -> bool:
        """Does the give-up budget reach any pass?  Not in a ddmin-only
        pipeline: ddmin is exempt, so there is nothing to budget — nor for a
        journal to pin, and the pipeline keeps the classic formats."""
        return [p.name for p in self.passes] != ["ddmin"]

    def steps(
        self, transformations: Sequence, ctx=None
    ) -> Generator[Any, None, PipelineResult]:
        """Reduce *transformations* to the pipeline fixpoint, yielding each
        ddmin leg's :class:`~repro.perf.parallel_reduce.ReductionSession`
        for the caller to run (``session.run`` or ``run_sessions``) before
        resuming; returns the :class:`PipelineResult`.

        *ctx* is a :class:`PipelineContext`, or a bare callable treated as a
        boolean interestingness test.  Raises ``ValueError`` when the input
        is genuinely non-interesting, exactly like the raw reducer.
        """
        return _Execution(self, _as_context(ctx), transformations).steps()

    def run(self, transformations: Sequence, ctx=None) -> PipelineResult:
        """:meth:`steps`, running each yielded leg in turn."""
        ctx = _as_context(ctx)
        steps = self.steps(transformations, ctx)
        try:
            while True:
                next(steps).run()
        except StopIteration as done:
            return done.value
        finally:
            steps.close()  # a leg that raised: release the run's journal now


def _as_context(ctx) -> PipelineContext:
    """*ctx* with the ``verdict_test`` every probe decides by: a bare
    callable or an ``is_interesting`` test becomes it, once (the oracle
    reads a boolean answer as a clean verdict)."""
    if callable(ctx):
        ctx = PipelineContext(is_interesting=ctx)
    if ctx is None or (ctx.is_interesting is None and ctx.verdict_test is None):
        raise ValueError("PipelineContext needs is_interesting or verdict_test")
    if ctx.verdict_test is None:
        ctx = replace(ctx, verdict_test=ctx.is_interesting, is_interesting=None)
    return ctx


class _Execution:
    """Single-use state machine for one :meth:`PassPipeline.steps`."""

    def __init__(self, pipeline: PassPipeline, ctx: PipelineContext, transformations):
        from repro.robustness.journal import ReductionJournal
        from repro.robustness.reduction import OracleStability

        self.pipeline = pipeline
        self.ctx = ctx
        self.giveup = pipeline.giveup
        self.tracer = as_tracer(ctx.tracer)
        self.sequence = list(transformations)
        self.current = list(transformations)
        self.positions: list[int] | None = list(range(len(self.sequence)))
        #: ``None`` runs the trusting oracles (see :class:`ReductionConfig`).
        self.policy = ctx.config.policy
        #: Pass-scoped journal keys and per-pass result stats, unless a
        #: ddmin-only pipeline keeps the classic formats (see
        #: :meth:`_prepare_journal`).
        self.scoped = pipeline.budgeted
        budget = ctx.config.max_seconds
        self.deadline: float | None = (
            time.monotonic() + budget if budget is not None else None
        )
        self.stats = {p.name: PassStats(p.name) for p in pipeline.passes}
        self.histories: list = []
        self.sequence_chunks = 0
        self.tests_total = 0
        self.timed_out = False
        self.degraded: str | None = None
        self.detail = ""
        self.module: Any = None
        self.module_verdict: Callable | None = None
        #: Speculation accounting shared by every pool-backed ddmin leg.
        self.speculation = SpeculationStats()
        self.decisions: dict[str, dict] = {}
        self.oracles: dict[str, Any] = {}
        #: Per-element memo shared by every pass scope's candidate keys.  It
        #: holds each keyed element, so no element's id is reused in the run.
        self.key_memo: dict = {}
        #: One stability ledger shared by every per-pass oracle, so the
        #: pipeline's stability is the sum of its passes' decisions.
        self.stability = OracleStability()
        journal = ctx.journal
        if journal is not None and not isinstance(journal, ReductionJournal):
            journal = ReductionJournal(journal)
        self.journal = journal

    @property
    def stopped(self) -> bool:
        return self.degraded is not None or self.timed_out

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    # -- oracle / journal plumbing -------------------------------------------------

    def _prepare_journal(self) -> None:
        """Open the journal.  A journal being resumed keeps its format: a
        config record means scoped keys (and must match this pipeline), and
        decisions without one are a classic ddmin journal's."""
        from repro.robustness.journal import ReductionJournal

        if self.journal is None:
            return
        self.decisions = self.journal.prepare(
            ReductionJournal.candidate_key(self.sequence),
            len(self.sequence),
            resume=self.ctx.resume,
        )
        config = {
            "v": 1,
            "pipeline": [p.name for p in self.pipeline.passes],
            "giveup": self.giveup,
        }
        existing = self.journal.config
        if existing is not None:
            self.scoped = True
        elif self.decisions:
            existing = {"pipeline": ["ddmin"], "giveup": self.giveup}
        else:
            # Fresh run — or a resume killed before the config record landed.
            if self.scoped:
                self.journal.append(config)
            return
        if (
            existing.get("pipeline") != config["pipeline"]
            or existing.get("giveup") != config["giveup"]
        ):
            raise ValueError(
                "reduction journal was written by a different pass pipeline "
                f"({existing.get('pipeline')}, giveup={existing.get('giveup')}) — "
                "resume with the same --reduce-passes/--giveup configuration"
            )

    def _sync_journal(self) -> None:
        """The group commit, at each pass end and at the run end: fsync the
        decisions journaled since the last one.  A failed fsync stops a
        fault-tolerant run as a failed decision write does
        (``oracle-error: <type>``) and raises otherwise."""
        from repro.robustness.reduction import degradation

        if self.journal is None:
            return
        try:
            self.journal.sync()
        except Exception as exc:  # noqa: BLE001 - a fault-tolerant run degrades
            if self.policy is None:
                raise
            if self.degraded is None:
                self.degraded, self.detail = degradation(exc)

    def oracle_for(self, scope: str, verdict_test=None, key_fn=None):
        """One long-lived flake-hardened oracle per pass scope.  Long-lived
        so its memo deduplicates repeat candidates across scheduler rounds —
        each key journals at most once, keeping resumed journals
        byte-identical."""
        from repro.robustness.reduction import FlakeHardenedOracle

        oracle = self.oracles.get(scope)
        if oracle is None:
            if key_fn is None:
                # Bound to plain values, not to ``self``: an oracle that
                # referred back here would make a cycle, and the finding's
                # replay snapshots would outlive the run until a full GC.
                # A policy-less, unjournaled run keys by element identity,
                # as the replay cache does; a journaled key must mean the
                # same in another process, and a fault-tolerant memo also
                # answers content-equal candidates, which stability counts.
                key_fn = (
                    partial(_identity_key, self.key_memo)
                    if self.policy is None and self.journal is None
                    else partial(
                        _candidate_key, scope if self.scoped else None, self.key_memo
                    )
                )
            oracle = FlakeHardenedOracle(
                verdict_test or self.ctx.verdict_test,
                self.policy,
                journal=self.journal,
                # Each oracle gets its own copy: scoped keys are disjoint
                # across passes, and ``__call__`` pops consumed records.
                resume_records=dict(self.decisions),
                supervised_target=self.ctx.supervised_target,
                tracer=self.tracer,
                metrics=self.ctx.metrics,
                replay_stats=self.ctx.replay_stats,
                key_fn=key_fn,
            )
            oracle.deadline = self.deadline
            oracle.stability = self.stability
            self.oracles[scope] = oracle
        return oracle

    def probe(self, reduction_pass: ReductionPass, candidate) -> bool:
        """One budget-exempt probe: the verdict for *candidate*, through the
        pass's oracle."""
        self.tests_total += 1
        if reduction_pass.stage == "module":
            return self._probe_module(reduction_pass, candidate)
        return bool(self.oracle_for(reduction_pass.name)(candidate))

    def _probe_module(self, reduction_pass: ReductionPass, module) -> bool:
        verdict_test = self.module_verdict

        def module_key(boxed, _scope=reduction_pass.name):
            return pass_scoped_key(_scope, _module_content_key(boxed[0]))

        def boxed_test(boxed):
            return verdict_test(boxed[0])

        oracle = self.oracle_for(
            reduction_pass.name, verdict_test=boxed_test, key_fn=module_key
        )
        # Module candidates are boxed in a one-element list so the oracle's
        # Sequence bookkeeping (len, list) stays meaningful.
        return bool(oracle([module]))

    def _verify(self) -> bool:
        """The verify probe: ``False`` when a fault stops a fault-tolerant
        run before it starts; a genuinely non-interesting input raises
        ``ValueError``."""
        self._prepare_journal()
        oracle = self.oracle_for("verify" if self.scoped else "ddmin")
        stop = oracle.check_input(self.sequence)
        if stop is not None:
            self.degraded, self.detail = stop
        return stop is None

    # -- the ddmin leg ---------------------------------------------------------------

    def ddmin_leg(self, run: PassRun) -> Iterator:
        from repro.perf.parallel_reduce import ReductionSession
        from repro.perf.pool import CallableProbeSpec, owned_pool

        ctx = self.ctx
        before_len = len(self.current)
        oracle = self.oracle_for(run.name)
        workers = max(1, ctx.config.workers)
        items, positions, given = self.current, None, None
        if workers > 1 and ctx.pool is not None and self.positions is not None:
            items, positions, given = self.sequence, self.positions, ctx.pool
        # Without the caller's pool, a leg of several workers builds its own.
        with owned_pool(
            given,
            ctx.pool_key,
            workers if ctx.pool is None else 1,
            lambda: CallableProbeSpec(
                test=ctx.verdict_test, items=tuple(items), policy=self.policy
            ),
        ) as pool:
            session = ReductionSession(
                items,
                oracle,
                pool=pool,
                key=ctx.pool_key,
                positions=positions,
                workers=workers,
                deadline=self.deadline,
                tracer=self.tracer,
                stats=self.speculation if pool is not None else None,
            )
            yield session
            result = session.finalize()
        # Every committed candidate is a probe, including one whose decision
        # aborted the leg.
        probes = session.engine.tests_run
        self.tests_total += probes
        run.stats.probes += probes
        run.stats.accepted += len(result.history)
        run.stats.removed += before_len - len(result.transformations)
        self.sequence_chunks += len(result.history)
        if len(result.transformations) < before_len:
            run.changed = True
        if positions is not None:
            self.positions = list(session.engine.current)
        self.current = list(result.transformations)
        self.histories.extend(result.history)
        if result.timed_out:
            self.timed_out = True
        elif session.degraded is not None:
            self.degraded, self.detail = session.degraded, session.detail

    # -- scheduling ------------------------------------------------------------------

    def steps(self) -> Generator[Any, None, PipelineResult]:
        self.tests_total = 1  # the verify probe
        try:
            if self._verify():
                yield from self._schedule()
            self._sync_journal()
        finally:
            if self.ctx.supervised_target is not None:
                self.ctx.supervised_target.set_timeout_override(None)
            if self.journal is not None:
                self.journal.close()  # after a raise: its last fsync, too
        return self._finish()

    def _schedule(self) -> Generator[Any, None, None]:
        sequence_passes = [p for p in self.pipeline.passes if p.stage == "sequence"]
        module_passes = [p for p in self.pipeline.passes if p.stage != "sequence"]
        pending = {p.name for p in sequence_passes}
        sweep = 0
        while pending and not self.stopped:
            sweep += 1
            for reduction_pass in sequence_passes:
                if reduction_pass.name not in pending or self.stopped:
                    continue
                pending.discard(reduction_pass.name)
                run = yield from self._invoke(reduction_pass, sweep)
                if run is not None and run.changed:
                    pending.update(
                        p.name
                        for p in sequence_passes
                        if p.name != reduction_pass.name
                    )
        if module_passes and not self.stopped and self.ctx.module_probe is not None:
            self.module, self.module_verdict = self.ctx.module_probe(self.current)
            for reduction_pass in module_passes:
                if self.stopped:
                    break
                yield from self._invoke(reduction_pass, sweep)

    def _invoke(
        self, reduction_pass: ReductionPass, sweep: int
    ) -> Generator[Any, None, PassRun | None]:
        from repro.robustness.reduction import ReductionAborted

        if self.out_of_time():
            self.timed_out = True
            return None
        run = PassRun(self, reduction_pass)
        self.stats[reduction_pass.name].runs += 1
        probes_before = run.stats.probes
        accepted_before = run.stats.accepted
        removed_before = run.stats.removed
        try:
            legs = reduction_pass.run(run)
            if legs is not None:
                yield from legs
        except ReductionAborted as abort:
            self.degraded = abort.reason
            self.detail = abort.detail
        except ValueError:
            raise
        except Exception as exc:  # noqa: BLE001 - a fault-tolerant run degrades
            if self.policy is None:
                raise
            self.degraded = f"oracle-error: {type(exc).__name__}"
            self.detail = str(exc)
        self._sync_journal()
        self.tracer.emit(
            "reduce.pass",
            name=reduction_pass.name,
            sweep=sweep,
            probes=run.stats.probes - probes_before,
            accepted=run.stats.accepted - accepted_before,
            removed=run.stats.removed - removed_before,
            gave_up=run.gave_up,
            remaining=len(self.current),
        )
        if self.ctx.metrics is not None:
            self.ctx.metrics.inc("reduce.pass_runs")
            self.ctx.metrics.inc(f"reduce.pass_runs.{reduction_pass.name}")
        return run

    # -- result assembly ---------------------------------------------------------------

    def _finish(self) -> PipelineResult:
        from repro.robustness.reduction import _apply_degradation

        result = PipelineResult(
            transformations=list(self.current),
            tests_run=self.tests_total,
            chunks_removed=self.sequence_chunks,
            initial_length=len(self.sequence),
            timed_out=self.timed_out,
            history=list(self.histories),
            speculation=self.speculation if self.speculation.mode == "pool" else None,
            pass_stats=(
                [self.stats[p.name] for p in self.pipeline.passes]
                if self.scoped
                else []
            ),
            cleaned_module=self.module,
        )
        if self.policy is not None:
            _apply_degradation(
                result,
                self.stability,
                self.degraded,
                self.detail,
                self.tracer,
                self.ctx.metrics,
            )
        return result


def _identity_key(pins: dict, candidate) -> tuple:
    """A sequence candidate's memo key in a policy-less, unjournaled run:
    its elements' identities, as the replay cache keys its prefixes.  Passes
    replace elements rather than edit them, and *pins* holds every keyed
    element."""
    ids = tuple(map(id, candidate))
    pins.update(zip(ids, candidate))
    return ids


def _candidate_key(scope: str | None, memo: dict, candidate) -> str:
    """A sequence candidate's journal/memo key: pass-scoped, or the classic
    unscoped key when *scope* is ``None``."""
    from repro.robustness.journal import ReductionJournal

    key = ReductionJournal.candidate_key(candidate, memo)
    return key if scope is None else pass_scoped_key(scope, key)


def _module_content_key(module: Any) -> str:
    """A content key for a module candidate.  ``touch()`` first: spirv-reduce
    edits instruction lists in place without bumping the module version, so
    the cached content digest the probe reads next would otherwise be
    stale."""
    module.touch()
    return hashlib.sha1(repr(module.fingerprint()).encode("utf-8")).hexdigest()
