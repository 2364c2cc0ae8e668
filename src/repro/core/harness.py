"""The testing harness (gfauto analogue, §3.2/§3.4).

Orchestrates the full loop of Figure 1: fuzz a reference program into a
variant, run original and variant on each target, flag crashes / invalid IR
/ result mismatches, and construct interestingness tests so the reducer can
shrink bug-inducing transformation sequences.

Per the paper's flow, when the unoptimized variant triggers nothing, the
harness optimizes it with the clean ``spirv-opt -O`` analogue and tests
again.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compilers.base import FAULT_KINDS, OutcomeKind, TargetOutcome
from repro.compilers.pipeline import Target, optimize
from repro.compilers.wrapper import DelayedTarget, find_wrapper
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.reducer import InterestingnessTest, ReductionResult, replay
from repro.core.signature import (
    MISCOMPILATION_SIGNATURE,
    crash_signature,
    invalid_ir_signature,
    resource_signature,
    timeout_signature,
    worker_crash_signature,
)
from repro.core.transformation import Transformation, effective_types
from repro.corpus.generator import CorpusProgram
from repro.ir.module import Module
from repro.observability import Metrics, as_tracer


@dataclass
class Finding:
    """One bug-indicating test case discovered by the harness."""

    target_name: str
    program_name: str
    seed: int
    signature: str
    kind: str  # "crash" | "invalid-ir" | "miscompilation" |
    #           "timeout" | "resource" | "worker-crash" (supervised probes)
    optimized_flow: bool
    transformations: list[Transformation]
    original: Module
    inputs: dict
    ground_truth_bug: str | None = None
    #: Set when verdict-stability reruns (RobustnessConfig.retries) observed
    #: a different classification for the same probe — deduplication keeps
    #: such findings apart from stable bugs.
    nondeterministic: bool = False


def _probe_delay(target: "object") -> float | None:
    """The ``--probe-delay`` latency anywhere in *target*'s wrapper chain."""
    delayed = find_wrapper(target, DelayedTarget)
    return None if delayed is None else delayed.probe_delay


#: Supervision fault kinds mapped to (finding kind, signature builder).
_FAULT_CLASSIFICATION = {
    OutcomeKind.TIMEOUT: ("timeout", timeout_signature),
    OutcomeKind.RESOURCE: ("resource", resource_signature),
    OutcomeKind.WORKER_CRASH: ("worker-crash", worker_crash_signature),
}


def classify_outcome(
    outcome: TargetOutcome, reference: TargetOutcome
) -> tuple[str, str, str | None] | None:
    """Compare a variant outcome against the original's outcome on the same
    target; return (signature, kind, ground-truth bug id) for a finding."""
    if reference.kind in FAULT_KINDS:
        # The *reference* run itself misbehaved under supervision; nothing
        # observed on the variant can be attributed to the transformations.
        return None
    if outcome.kind in FAULT_KINDS:
        kind, signature_for = _FAULT_CLASSIFICATION[outcome.kind]
        return signature_for(outcome.crash_message), kind, outcome.bug_id
    if outcome.kind is OutcomeKind.CRASH:
        signature = crash_signature(outcome.crash_message)
        if (
            reference.kind is OutcomeKind.CRASH
            and crash_signature(reference.crash_message) == signature
        ):
            return None  # pre-existing crash, not variant-induced
        return signature, "crash", outcome.bug_id
    if outcome.kind is OutcomeKind.INVALID:
        signature = invalid_ir_signature(outcome.validation_errors)
        if (
            reference.kind is OutcomeKind.INVALID
            and invalid_ir_signature(reference.validation_errors) == signature
        ):
            return None
        return signature, "invalid-ir", outcome.bug_id
    if (
        reference.kind is OutcomeKind.OK
        and reference.result is not None
        and outcome.result is not None
    ):
        if not reference.result.agrees_with(outcome.result):
            # A mismatch arises when a miscompilation bug fired *differently*
            # on variant and original, so attribute via symmetric difference.
            fired = sorted(
                outcome.fired_miscompile_bugs ^ reference.fired_miscompile_bugs
            )
            ground_truth = fired[0] if fired else None
            return MISCOMPILATION_SIGNATURE, "miscompilation", ground_truth
    return None


@dataclass
class SeedRun:
    """Everything observed while testing one fuzzed variant."""

    program_name: str
    seed: int
    transformation_count: int
    findings: list[Finding] = field(default_factory=list)
    #: Targets skipped because they were quarantined when this seed ran.
    skipped_targets: tuple[str, ...] = ()
    #: Supervision faults observed during this seed: (target, fault kind).
    #: Journaled so a resumed campaign restores quarantine accounting.
    faults: tuple[tuple[str, str], ...] = ()


@dataclass
class CampaignResult:
    findings: list[Finding] = field(default_factory=list)
    seed_runs: list[SeedRun] = field(default_factory=list)
    #: Targets quarantined during the campaign, with a reason each.
    quarantined: dict[str, str] = field(default_factory=dict)

    def signatures_for_target(self, target_name: str) -> set[str]:
        return {
            f.signature for f in self.findings if f.target_name == target_name
        }

    def all_signatures(self) -> set[tuple[str, str]]:
        """(target, signature) pairs — distinct bug signatures overall."""
        return {(f.target_name, f.signature) for f in self.findings}


class Harness:
    """Runs fuzzing campaigns and builds interestingness tests."""

    def __init__(
        self,
        targets: Sequence[Target],
        references: Sequence[CorpusProgram],
        donors: Sequence[CorpusProgram] = (),
        options: FuzzerOptions | None = None,
        *,
        optimized_flow: bool = True,
        robustness: "object | None" = None,
        tracer: "object | None" = None,
        metrics: Metrics | None = None,
        probe_cache: "bool | object" = True,
    ) -> None:
        from repro.robustness import QuarantineTracker, supervise_targets

        #: Event bus for structured tracing (``None`` -> the no-op tracer;
        #: campaign results are byte-identical either way).
        self.tracer = as_tracer(tracer)
        #: Always-on counter/timing registry; ``run_campaign`` folds worker
        #: registries into this one through the shard-merge path.
        self.metrics = metrics if metrics is not None else Metrics()
        self.robustness = robustness  # a RobustnessConfig, or None
        self.targets = (
            supervise_targets(targets, robustness, tracer=self.tracer)
            if robustness is not None
            else list(targets)
        )
        #: Content-hash probe cache, on by default (``False`` keeps the
        #: uncached reference path the soundness suites compare against).
        #: Incompatible with verdict-stability retries — a cached re-probe
        #: could never observe flakiness — so retries win and the cache is
        #: disabled with a traced reason.
        self.probe_cache = None
        #: Whether :meth:`run_seed` clears the memos when a seed starts: a
        #: seed's variant is new content, so nothing but the reference
        #: probes recurs across seeds.  A ProbeCache instance passed in is
        #: the caller's (it may be shared), and so is its lifetime.
        self._seed_scoped_cache = False
        if probe_cache:
            if robustness is not None and robustness.retries > 0:
                self.metrics.inc("probe_cache.disabled")
                self.tracer.emit(
                    "probe_cache.disabled",
                    reason="verdict-stability-retries",
                )
            else:
                from repro.perf.probe_cache import CachingTarget, ProbeCache

                self._seed_scoped_cache = not isinstance(probe_cache, ProbeCache)
                self.probe_cache = (
                    ProbeCache() if self._seed_scoped_cache else probe_cache
                )
                self.targets = [
                    CachingTarget(t, self.probe_cache) for t in self.targets
                ]
        if self.probe_cache is not None:
            from repro.perf.probe_cache import CachedOptimizer

            self._optimize = CachedOptimizer(self.probe_cache)
        else:
            self._optimize = optimize
        self._probe_cache_shipped: dict[str, int] = {}
        self._probe_cache_emitted: dict[str, int] = {}
        self.references = list(references)
        self.donors = list(donors)
        options = options or FuzzerOptions()
        if robustness is not None and robustness.recover_effect_errors:
            from dataclasses import replace as dc_replace

            if not options.recover_effect_errors:
                options = dc_replace(options, recover_effect_errors=True)
        self.options = options
        self.fuzzer = Fuzzer(self.donors, self.options)
        self.optimized_flow = optimized_flow
        self.quarantine = QuarantineTracker(
            robustness.quarantine_after if robustness is not None else None
        )
        #: Decorrelated jitter for verdict-stability reruns (seeded, so a
        #: rebuilt harness sleeps the same sequence); ``None`` keeps the
        #: deterministic exponential backoff.
        self._retry_jitter = None
        if robustness is not None and robustness.retry_jitter_seed is not None:
            from repro.robustness.retry import DecorrelatedJitter

            self._retry_jitter = DecorrelatedJitter(
                robustness.retry_backoff, seed=robustness.retry_jitter_seed
            )
        self._reference_outcomes: dict[tuple[str, str], TargetOutcome] = {}
        self._fault_log: list[tuple[str, str]] | None = None

    def close(self) -> None:
        """Shut down any supervised probe workers (idempotent)."""
        from repro.robustness import close_targets

        close_targets(self.targets)

    def _probe(self, target: Target, module: Module, inputs: dict) -> TargetOutcome:
        """One probe, with quarantine fault accounting and instrumentation."""
        started = time.perf_counter()
        outcome = target.run(module, inputs)
        self.metrics.observe("probe_seconds", time.perf_counter() - started)
        self.metrics.inc("probes")
        self.tracer.emit(
            "probe", target=target.name, outcome=outcome.kind.value
        )
        if not outcome.is_fault:
            return outcome
        kind = outcome.kind.value
        self.metrics.inc("faults")
        self.metrics.inc(f"faults.{kind}")
        self.tracer.emit("fault", target=target.name, kind=kind)
        quarantined_before = self.quarantine.is_quarantined(target.name)
        self.quarantine.record_fault(target.name, outcome)
        if self._fault_log is not None:
            self._fault_log.append((target.name, kind))
        if not quarantined_before and self.quarantine.is_quarantined(
            target.name
        ):
            self.metrics.inc("quarantines")
            self.tracer.emit(
                "quarantine",
                target=target.name,
                reason=self.quarantine.report().get(target.name, ""),
            )
        return outcome

    # -- probe-cache accounting ------------------------------------------------------

    def _sync_probe_cache_metrics(self) -> None:
        """Ship probe-cache stat deltas into the metrics registry.

        Called at the end of every seed, so in parallel campaigns the
        counters ride the existing per-shard metrics drain back to the
        parent.
        """
        if self.probe_cache is None:
            return
        current = self.probe_cache.stats.to_json()
        for name, value in current.items():
            delta = value - self._probe_cache_shipped.get(name, 0)
            if delta:
                self.metrics.inc(f"probe_cache.{name}", delta)
        self._probe_cache_shipped = current

    def _probe_cache_event_delta(self) -> dict | None:
        """Probe-cache counters accrued since the last emitted event.

        Events carry *deltas* (not cumulative totals) so a report summing
        several ``campaign.end`` / ``reduce.end`` records counts each probe
        once.
        """
        if self.probe_cache is None:
            return None
        self._sync_probe_cache_metrics()
        current = self.probe_cache.stats.to_json()
        delta = {
            name: value - self._probe_cache_emitted.get(name, 0)
            for name, value in current.items()
        }
        self._probe_cache_emitted = current
        if not any(delta.values()):
            return None
        return delta

    def reference_outcome(self, target: Target, program: CorpusProgram) -> TargetOutcome:
        # Reference probes bypass quarantine *accounting*: they are cached per
        # (target, program), so whether one re-runs depends on process history
        # (a resumed campaign re-probes; an uninterrupted one hits the cache).
        # Counting them would make checkpoint/resume diverge from an
        # uninterrupted run.  Variant probes, which recur every seed, carry
        # the fault budget instead.  A faulted outcome is never memoised:
        # every finding whose reference faulted is discarded, so caching a
        # transient fault would silence this target x program for as long
        # as the harness lives.
        key = (target.name, program.name)
        cached = self._reference_outcomes.get(key)
        if cached is None:
            cached = target.run(program.module, program.inputs)
            if not cached.is_fault:
                self._reference_outcomes[key] = cached
            self.metrics.inc("reference_probes")
            self.tracer.emit(
                "probe",
                target=target.name,
                outcome=cached.kind.value,
                reference=True,
                program=program.name,
            )
        return cached

    # -- one seed ---------------------------------------------------------------

    def run_seed(self, seed: int, program: CorpusProgram | None = None) -> SeedRun:
        """Fuzz one variant and test it on every target (Figure 1)."""
        if program is None:
            program = self.references[seed % len(self.references)]
        self.tracer.emit("seed.begin", seed=seed, program=program.name)
        seed_started = time.perf_counter()
        if self._seed_scoped_cache:
            self.probe_cache.clear()
        fuzzed = self.fuzzer.run(program.module, program.inputs, seed)
        run = SeedRun(program.name, seed, len(fuzzed.transformations))
        variant = fuzzed.variant
        # Transformations may extend the input in sync with the module
        # (AddUniform); the variant runs on its own input binding.
        variant_inputs = fuzzed.context.inputs
        optimized_variant = functools.cache(lambda: self._optimize(variant))
        skipped: list[str] = []
        faults: list[tuple[str, str]] = []
        self._fault_log = faults
        # The targets branch from one variant: scope the probe cache's
        # module store to this loop (reductions keep no snapshots).
        fan_out = (
            self.probe_cache.fan_out()
            if self.probe_cache is not None
            else contextlib.nullcontext()
        )
        try:
            with fan_out:
                for target in self.targets:
                    if self.quarantine.is_quarantined(target.name):
                        skipped.append(target.name)
                        self.metrics.inc("skipped_probes")
                        self.tracer.emit(
                            "probe.skipped", seed=seed, target=target.name
                        )
                        continue
                    reference = self.reference_outcome(target, program)
                    classified, optimized_flow = self.classify_variant(
                        target, reference, variant, variant_inputs, optimized_variant
                    )
                    if classified is None:
                        continue
                    signature, kind, ground_truth = classified
                    nondeterministic = False
                    if self.robustness is not None and self.robustness.retries > 0:
                        from repro.robustness import verdict_is_stable

                        probed = optimized_variant() if optimized_flow else variant
                        nondeterministic = not verdict_is_stable(
                            lambda: self._probe(target, probed, variant_inputs),
                            lambda o: classify_outcome(o, reference),
                            (signature, kind),
                            retries=self.robustness.retries,
                            backoff=self.robustness.retry_backoff,
                            jitter=self._retry_jitter,
                        )
                        self.metrics.inc("retries")
                        if nondeterministic:
                            self.metrics.inc("retries.unstable")
                        self.tracer.emit(
                            "retry",
                            seed=seed,
                            target=target.name,
                            stable=not nondeterministic,
                        )
                    self.metrics.inc("findings")
                    self.metrics.inc(f"findings.{kind}")
                    self.tracer.emit(
                        "finding",
                        seed=seed,
                        target=target.name,
                        kind=kind,
                        signature=signature,
                        optimized_flow=optimized_flow,
                        nondeterministic=nondeterministic,
                        # The Figure 6 type set, so trace files are a
                        # streamable dedup input (see dedup_scale).
                        types=sorted(effective_types(fuzzed.transformations)),
                    )
                    run.findings.append(
                        Finding(
                            target_name=target.name,
                            program_name=program.name,
                            seed=seed,
                            signature=signature,
                            kind=kind,
                            optimized_flow=optimized_flow,
                            transformations=list(fuzzed.transformations),
                            original=program.module,
                            inputs=dict(program.inputs),
                            ground_truth_bug=ground_truth,
                            nondeterministic=nondeterministic,
                        )
                    )
        finally:
            self._fault_log = None
        run.skipped_targets = tuple(skipped)
        run.faults = tuple(faults)
        self._sync_probe_cache_metrics()
        self.metrics.inc("seeds")
        self.metrics.observe("seed_seconds", time.perf_counter() - seed_started)
        self.tracer.emit(
            "seed.end",
            seed=seed,
            program=program.name,
            transformations=run.transformation_count,
            findings=len(run.findings),
            faults=len(faults),
            dur_s=round(time.perf_counter() - seed_started, 6),
        )
        return run

    def classify_variant(
        self,
        target: Target,
        reference: TargetOutcome,
        variant: Module,
        inputs: dict,
        optimized: Callable[[], Module] | None = None,
    ) -> tuple[tuple | None, bool]:
        """Probe *variant* on *target* and classify it against *reference*
        through Figure 1's two flows: the variant itself, then — when that
        finds nothing and the harness tests the optimized flow — the
        variant after the optimizer.  *optimized* builds (and memoizes) the
        optimized variant; by default it is optimized on demand.  Returns
        ``(classified, optimized_flow)``, with ``classified`` ``None`` when
        neither flow shows a bug."""
        if optimized is None:
            optimized = functools.cache(lambda: self._optimize(variant))
        classified = classify_outcome(self._probe(target, variant, inputs), reference)
        if classified is not None or not self.optimized_flow:
            return classified, False
        outcome = self._probe(target, optimized(), inputs)
        return classify_outcome(outcome, reference), True

    def run_campaign(
        self,
        seeds: Sequence[int],
        *,
        workers: int = 1,
        spec: "object | None" = None,
        journal: "object | None" = None,
        resume: bool = False,
        progress: Callable[[SeedRun], None] | None = None,
        degrade: bool = True,
    ) -> CampaignResult:
        """Run every seed through :meth:`run_seed`.

        With ``workers > 1`` seeds are sharded across a
        :class:`~repro.perf.pool.WorkerPool` (see :mod:`repro.perf.parallel`);
        results are merged back in seed order so
        they are byte-identical to the serial path.  ``workers=1`` is exactly
        the original serial loop.  *spec* overrides the automatically derived
        :class:`~repro.perf.parallel.CampaignSpec` (needed only for harnesses
        over non-standard corpora/targets).

        *degrade* (default on) drops ``workers`` to 1 — with a traced
        ``parallel.degraded`` reason — when sharding cannot win: a single
        CPU with no supervised probe latency to hide, or fewer than two
        pending seeds.  Results are identical either way (the parallel path
        is byte-identical by construction); only the wall clock differs.
        Pass ``degrade=False`` to force the sharded path, e.g. to test it.

        *journal* (a path or :class:`~repro.robustness.CampaignJournal`)
        appends one JSONL record per completed seed; with ``resume=True``
        already-journaled seeds are replayed from the journal instead of
        re-fuzzed, so an interrupted campaign — even one killed mid-seed —
        finishes with a result identical to an uninterrupted run.

        *progress* is invoked once per freshly computed :class:`SeedRun`
        (per seed when serial, per collected shard when parallel) — the
        CLI's live progress line.  It observes results that are already
        final, so it cannot change them.
        """
        seeds = list(seeds)
        done: dict[int, SeedRun] = {}
        if journal is not None and not hasattr(journal, "append"):
            from repro.robustness import CampaignJournal

            journal = CampaignJournal(journal)
        if journal is not None and resume:
            references_by_name = {p.name: p for p in self.references}
            done = journal.load(references_by_name)
            done = {seed: run for seed, run in done.items() if seed in set(seeds)}
            # Restore quarantine accounting for the seeds we are skipping.
            for seed in sorted(done):
                for target_name, kind in done[seed].faults:
                    self.quarantine.record_fault_kind(target_name, kind)
        pending = [seed for seed in seeds if seed not in done]
        if workers > 1 and degrade:
            reason = self._parallel_degrade_reason(len(pending))
            if reason is not None:
                self.metrics.inc("parallel.degraded")
                self.tracer.emit(
                    "parallel.degraded", reason=reason, workers=workers
                )
                workers = 1
        self.tracer.emit(
            "campaign.begin",
            seeds=len(seeds),
            pending=len(pending),
            resumed=len(done),
            workers=workers,
            targets=[t.name for t in self.targets],
        )
        campaign_started = time.perf_counter()

        computed: dict[int, SeedRun] = {}
        if workers == 1:
            for seed in pending:
                run = self.run_seed(seed)
                computed[seed] = run
                if journal is not None:
                    journal.append(run)
                if progress is not None:
                    progress(run)
        elif pending:
            from repro.perf.parallel import seed_shards
            from repro.perf.pool import WorkerPool

            runs: list = []
            with WorkerPool({"campaign": spec or self.campaign_spec()}, workers) as pool:
                for shard in pool.map("campaign", seed_shards(pending, pool.workers)):
                    runs.extend(shard)
                    if journal is not None:
                        journal.append_runs(shard)
                    if progress is not None:
                        for run in shard:
                            progress(run)
                # Worker metric registries come back as per-shard drains.
                self.metrics.merge(pool.delta("campaign"))
            computed = dict(zip(pending, runs))
            # Workers quarantine independently; fold their fault observations
            # into the parent tracker so the final report covers them.
            for run in runs:
                for target_name, kind in run.faults:
                    self.quarantine.record_fault_kind(target_name, kind)

        result = CampaignResult()
        for seed in seeds:
            run = done.get(seed) or computed[seed]
            result.seed_runs.append(run)
            result.findings.extend(run.findings)
        result.quarantined = self.quarantine.report()
        extra: dict = {}
        cache_delta = self._probe_cache_event_delta()
        if cache_delta is not None:
            extra["probe_cache"] = cache_delta
        self.tracer.emit(
            "campaign.end",
            seeds=len(seeds),
            findings=len(result.findings),
            quarantined=sorted(result.quarantined),
            dur_s=round(time.perf_counter() - campaign_started, 6),
            **extra,
        )
        return result

    def _parallel_degrade_reason(self, pending_count: int) -> str | None:
        """Why sharding this campaign across processes cannot pay off."""
        import os

        if pending_count and pending_count < 2:
            return "tiny-seed-count"
        if (os.cpu_count() or 1) == 1 and not any(
            _probe_delay(t) for t in self.targets
        ):
            # One CPU and purely compute-bound probes: worker processes just
            # time-slice the same core and pay fork + merge overhead on top.
            return "single-cpu-no-probe-latency-to-hide"
        return None

    def campaign_spec(self) -> "object":
        """A picklable spec that rebuilds this harness in a worker process."""
        from repro.compilers import make_target
        from repro.corpus import donor_programs, reference_programs
        from repro.perf.parallel import CampaignSpec, spec_names_for

        for target in self.targets:
            make_target(target.name)  # raises KeyError for non-Table-2 targets
        trace_path = getattr(self.tracer, "path", None)
        return CampaignSpec(
            kind="core",
            target_names=tuple(t.name for t in self.targets),
            reference_names=spec_names_for(self.references, reference_programs),
            donor_names=spec_names_for(self.donors, donor_programs),
            options=self.options,
            optimized_flow=self.optimized_flow,
            robustness=self.robustness,
            # Workers append to the same trace file (O_APPEND line atomicity).
            trace=str(trace_path) if trace_path is not None else None,
            probe_cache=self.probe_cache is not None,
        )

    # -- reduction support ---------------------------------------------------------

    def make_interestingness_test(
        self, finding: Finding, *, replayer: "object | None" = None
    ) -> InterestingnessTest:
        """A script-equivalent predicate: does a candidate transformation
        subsequence still trigger this finding's bug on its target?

        With a :class:`~repro.perf.replay_cache.CachedReplayer` bound to the
        finding, candidate replays reuse prefix snapshots — results stay
        byte-identical to the uncached predicate.
        """
        probe_test = self.make_probe_test(finding, replayer=replayer)

        def is_interesting(candidate: Sequence[Transformation]) -> bool:
            return probe_test(candidate).interesting

        return is_interesting

    def make_probe_test(
        self, finding: Finding, *, replayer: "object | None" = None
    ):
        """Like :meth:`make_interestingness_test`, but fault-aware: returns a
        verdict test mapping candidates to :class:`~repro.robustness.
        ProbeVerdict`, the one every reduction probe decides by (see
        :meth:`_verdict`).

        No verdict memoization is layered here even when a *replayer* is
        given — caching a faulted probe would defeat the retry policy.  The
        :class:`~repro.robustness.FlakeHardenedOracle` memoizes final
        *decisions* by candidate content instead, and counts its commits into
        the replayer's :class:`~repro.perf.replay_cache.ReplayStats`.

        With a *replayer* and the probe cache, a candidate some earlier probe
        on this harness already replayed (another finding of the same
        variant, another pass of the pipeline) is not replayed again: the
        probe cache's replay memo gives its content digest, and the cache
        replays it only when a miss must read the module.  An
        optimized-flow probe replays every candidate, since the optimizer
        reads the module.
        """
        target = next(t for t in self.targets if t.name == finding.target_name)
        reference = target.run(finding.original, finding.inputs)
        cache = self.probe_cache
        if replayer is None or cache is None or finding.optimized_flow:

            def probe_test(candidate: Sequence[Transformation]) -> "ProbeVerdict":
                if replayer is not None:
                    ctx = replayer.replay(candidate)
                else:
                    ctx = replay(finding.original, finding.inputs, candidate)
                # ctx.inputs reflects any input-extending transformations
                # that survived into the candidate.
                return self._verdict(
                    finding, target, reference, ctx.module, ctx.inputs
                )

            return probe_test

        def digest_probe_test(
            candidate: Sequence[Transformation],
        ) -> "ProbeVerdict":
            key, known = cache.replayed(finding.original, finding.inputs, candidate)
            if known is None:
                ctx = replayer.replay(candidate)
                digest, inputs = ctx.module.content_digest(), ctx.inputs
                cache.remember_replay(key, finding.original, candidate, digest, inputs)
                outcome = target.run(lambda: ctx.module, inputs, digest=digest)
                return self._classify(finding, reference, outcome)
            replayed = []

            def build() -> Module:
                replayed.append(True)
                return replayer.replay(candidate).module

            digest, inputs = known
            outcome = target.run(build, inputs, digest=digest)
            if not replayed:
                replayer.stats.digest_answers += 1
            return self._classify(finding, reference, outcome)

        return digest_probe_test

    def _verdict(
        self,
        finding: Finding,
        target: Target,
        reference: TargetOutcome,
        module: Module,
        inputs: dict,
    ) -> "ProbeVerdict":
        """Does *module* still trigger the finding's bug on *target*?

        A probe whose outcome is a supervision fault (timeout / OOM / worker
        death) that is *not* the finding's own bug kind reports the fault
        instead of a clean ``False`` — the fault envelope retries it and,
        once the fault budget is spent, treats it as "not interesting"
        (never acceptance).  Reducing a fault-kind finding (e.g. a genuine
        ``timeout`` bug) still classifies normally: there the fault *is* the
        signal.
        """
        if finding.optimized_flow:
            module = self._optimize(module)
        return self._classify(finding, reference, target.run(module, inputs))

    @staticmethod
    def _classify(
        finding: Finding, reference: TargetOutcome, outcome: TargetOutcome
    ) -> "ProbeVerdict":
        """The verdict of a probe of *finding* that answered *outcome* (see
        :meth:`_verdict`)."""
        from repro.robustness import ProbeVerdict

        if outcome.kind in FAULT_KINDS:
            if finding.kind != _FAULT_CLASSIFICATION[outcome.kind][0]:
                return ProbeVerdict(False, fault=outcome.kind.value)
        classified = classify_outcome(outcome, reference)
        if classified is None:
            return ProbeVerdict(False)
        signature, kind, _ = classified
        return ProbeVerdict(kind == finding.kind and signature == finding.signature)

    def finding_probe_spec(
        self,
        finding: Finding,
        *,
        policy: "object | None" = None,
    ) -> "object":
        """A picklable spec that rebuilds this finding's probe, deciding
        under *policy*, inside a worker-pool process (see :class:`~repro.
        perf.pool.FindingProbeSpec`).  Raises for targets or corpus
        programs a worker could not rebuild by name."""
        import json as json_mod

        from repro.compilers import make_target
        from repro.core.transformation import sequence_to_json
        from repro.corpus import reference_programs
        from repro.perf.pool import FindingProbeSpec

        make_target(finding.target_name)  # raises KeyError for unknown targets
        if finding.program_name not in {p.name for p in reference_programs()}:
            raise ValueError(
                f"program {finding.program_name!r} is not in the standard "
                "corpus; parallel reduction workers cannot rebuild it by name"
            )
        target = next(t for t in self.targets if t.name == finding.target_name)
        probe_delay = _probe_delay(target)
        return FindingProbeSpec(
            target_name=finding.target_name,
            program_name=finding.program_name,
            transformations_json=json_mod.dumps(
                sequence_to_json(finding.transformations)
            ),
            signature=finding.signature,
            kind=finding.kind,
            optimized_flow=finding.optimized_flow,
            robustness=self.robustness,
            policy=policy,
            probe_delay=probe_delay,
            probe_cache=self.probe_cache is not None,
        )

    def _reduction_pool(
        self, findings: "dict[str, Finding]", config: "object"
    ) -> "object | None":
        """One :class:`~repro.perf.pool.WorkerPool` over *findings* (keyed by
        session key), whose workers decide under the resolved *config*'s
        policy; ``None`` when some finding cannot be shipped to workers (the
        reductions then run inline)."""
        from repro.perf.pool import WorkerPool

        try:
            specs = {
                key: self.finding_probe_spec(finding, policy=config.policy)
                for key, finding in findings.items()
            }
        except (KeyError, ValueError):
            return None
        if not all(WorkerPool.shippable(spec) for spec in specs.values()):
            return None
        return WorkerPool(specs, config.workers)

    def _begin_reduction(
        self, finding: Finding, config: "object", pipeline: "object"
    ) -> tuple[float, "object"]:
        """Emit ``reduce.begin``; return the start time and the finding's
        prefix-caching replayer."""
        self.tracer.emit(
            "reduce.begin",
            target=finding.target_name,
            kind=finding.kind,
            signature=finding.signature,
            initial_length=len(finding.transformations),
            fault_tolerant=config.policy is not None,
            passes=[p.name for p in pipeline.passes],
        )
        started = time.perf_counter()
        from repro.perf.replay_cache import CachedReplayer

        return started, CachedReplayer(finding.original, finding.inputs)

    def _finish_reduce(
        self,
        finding: Finding,
        result: ReductionResult,
        replayer: "object",
        started: float,
        *,
        workers: int | None = None,
    ) -> ReductionResult:
        """Shared reduction epilogue: stats attachment, metrics, and the
        ``reduce.end`` event (with speculation accounting when parallel)."""
        result.replay_stats = replayer.stats
        elapsed = time.perf_counter() - started
        self.metrics.inc("reductions")
        self.metrics.inc("reduction_tests_run", result.tests_run)
        self.metrics.inc("reduction_chunks_removed", result.chunks_removed)
        self.metrics.observe("reduce_seconds", elapsed)
        cache = result.replay_stats.to_json()
        for field_name, value in cache.items():
            self.metrics.inc(f"replay.{field_name}", value)
        speculation = getattr(result, "speculation", None)
        extra: dict = {}
        if speculation is not None:
            self.metrics.inc("reduce.parallel")
            self.metrics.inc("reduce.speculation.dispatched", speculation.dispatched)
            self.metrics.inc("reduce.speculation.committed", speculation.committed)
            self.metrics.inc("reduce.speculation.wasted", speculation.wasted)
            extra = {"speculation": speculation.to_json(), "workers": workers}
        cache_delta = self._probe_cache_event_delta()
        if cache_delta is not None:
            extra["probe_cache"] = cache_delta
        self.tracer.emit(
            "reduce.end",
            target=finding.target_name,
            kind=finding.kind,
            signature=finding.signature,
            initial_length=result.initial_length,
            final_length=result.final_length,
            tests_run=result.tests_run,
            chunks_removed=result.chunks_removed,
            timed_out=result.timed_out,
            degraded=result.degraded,
            stability=result.stability,
            cache=cache,
            dur_s=round(elapsed, 6),
            **extra,
        )
        return result

    def _module_probe_factory(
        self, finding: Finding, replay_sequence: Callable[[Sequence], "object"]
    ):
        """A pipeline ``module_probe``: maps the surviving sequence to the
        materialized module plus a module-level verdict test (the module
        analogue of :meth:`make_probe_test`), so module-stage passes probe
        through the same fault classification as sequence passes.
        *replay_sequence* maps a sequence to its replayed context."""
        target = next(t for t in self.targets if t.name == finding.target_name)

        def module_probe(sequence):
            reference = target.run(finding.original, finding.inputs)
            ctx = replay_sequence(sequence)

            def module_verdict(module) -> "ProbeVerdict":
                return self._verdict(finding, target, reference, module, ctx.inputs)

            return ctx.module, module_verdict

        return module_probe

    def spirv_cleanup(self, finding: Finding, transformations: Sequence):
        """Run the spirv-reduce module post-pass on the variant that
        *transformations* materializes (the standalone cleanup stage of the
        pre-pipeline chain; the pass pipeline's ``cleanup`` pass is the
        journaled, fault-enveloped equivalent)."""
        from repro.core.reducer import spirv_reduce

        module, module_verdict = self._module_probe_factory(
            finding, functools.partial(replay, finding.original, finding.inputs)
        )(transformations)

        def is_interesting_module(candidate) -> bool:
            return bool(module_verdict(candidate).interesting)

        return spirv_reduce(module, is_interesting_module)

    def reduce_finding(
        self,
        finding: Finding,
        config: "object | None" = None,
        *,
        journal: "object | None" = None,
        resume: bool = False,
    ) -> ReductionResult:
        """Delta-debug the finding's transformation sequence (§3.4) under
        *config* (a :class:`~repro.reduce.ReductionConfig`, which documents
        every knob; default: the paper's serial ddmin pass).

        Candidate replays go through a prefix-caching :class:`~repro.perf.
        replay_cache.CachedReplayer`; the reduced sequence is the one the
        paper's pay-full-price replay gives (``make_interestingness_test(
        finding)`` is that uncached reference).

        Every candidate is decided by a :class:`~repro.robustness.
        FlakeHardenedOracle`, the engine's commit hook.  It is
        **fault-tolerant** whenever the harness supervises its targets (a
        :class:`~repro.robustness.RobustnessConfig` was given), the config
        carries a policy, or the call passes a *journal* (a path or
        :class:`~repro.robustness.ReductionJournal` for checkpoint/resume) or
        ``resume=True``; otherwise it trusts one probe per decision.  On a
        deterministic, well-behaved target both return the same reduced
        sequence; under faults or flaky verdicts a fault-tolerant reduction
        retries, votes, degrades to best-so-far, and — with a journal —
        survives ``SIGKILL``.

        This is :meth:`reduce_all` of one finding, plus the per-finding
        journal.
        """
        return self._reduce([finding], config, journal=journal, resume=resume)[0]

    def reduce_all(
        self, findings: Sequence[Finding], config: "object | None" = None
    ) -> list[ReductionResult]:
        """Reduce *findings* under one *config* (see :meth:`reduce_finding`);
        results come back in *findings* order, each byte-identical to what
        :meth:`reduce_finding` produces alone.

        With ``config.workers > 1`` the findings share **one worker pool**:
        their pipelines' ddmin legs run side by side with fair (round-robin)
        candidate scheduling, so a stubborn reduction cannot starve the
        others.
        """
        return self._reduce(findings, config)

    def _reduce(
        self,
        findings: Sequence[Finding],
        config: "object | None",
        *,
        journal: "object | None" = None,
        resume: bool = False,
    ) -> list[ReductionResult]:
        """The one reduction body: each finding runs begin → its config's
        pass pipeline → finish.  Over a pool, the current ddmin legs of all
        findings run together, round-robin; inline, finding by finding."""
        from dataclasses import replace

        from repro.perf.parallel_reduce import run_sessions
        from repro.reduce import PipelineContext, ReductionConfig
        from repro.robustness import find_supervised

        config = (config or ReductionConfig()).resolve(
            robustness=self.robustness, journaled=journal is not None or resume
        )
        keyed = {f"finding-{index}": f for index, f in enumerate(findings)}
        pool = None
        if config.workers > 1 and keyed:
            pool = self._reduction_pool(keyed, config)
        if pool is None:
            config = replace(config, workers=1)  # an unshippable finding
        groups = [list(keyed)] if pool is not None else [[key] for key in keyed]
        results = []
        legs: dict = {}
        try:
            for group in groups:
                begun, legs, reduced = {}, {}, {}
                for key in group:
                    finding = keyed[key]
                    pipeline = config.pipeline()
                    started, replayer = self._begin_reduction(
                        finding, config, pipeline
                    )
                    begun[key] = (finding, started, replayer)
                    target = next(
                        t for t in self.targets if t.name == finding.target_name
                    )
                    context = PipelineContext(
                        verdict_test=self.make_probe_test(finding, replayer=replayer),
                        config=config,
                        journal=journal,
                        resume=resume,
                        supervised_target=find_supervised(target),
                        pool=pool,
                        pool_key=key,
                        tracer=self.tracer,
                        metrics=self.metrics,
                        replay_stats=replayer.stats,
                        module_probe=self._module_probe_factory(
                            finding, replayer.replay
                        ),
                    )
                    _advance(
                        key, pipeline.steps(finding.transformations, context),
                        legs, reduced,
                    )
                while legs:
                    run_sessions([session for _, session in legs.values()])
                    for key, (steps, _) in list(legs.items()):
                        _advance(key, steps, legs, reduced)
                for key, (finding, started, replayer) in begun.items():
                    if pool is not None:
                        # Worker replay counters fold into the parent's
                        # registry over the same drain/merge path campaign
                        # metrics use.
                        replayer.stats.merge_json(pool.delta(key).counters())
                    results.append(
                        self._finish_reduce(
                            finding, reduced[key], replayer, started,
                            workers=config.workers,
                        )
                    )
        finally:
            for steps, _ in legs.values():
                steps.close()  # a leg that raised: release its journal now
            if pool is not None:
                pool.close()
        return results

    def reduced_variant(
        self, finding: Finding, reduction: ReductionResult
    ) -> Module:
        """Materialise the reduced variant program for reporting."""
        return replay(
            finding.original, finding.inputs, reduction.transformations
        ).module


def _advance(key: str, steps, legs: dict, reduced: dict) -> None:
    """Resume a finding's pipeline *steps* to its next ddmin leg (kept in
    *legs*) or to its result (moved to *reduced*)."""
    try:
        legs[key] = (steps, next(steps))
    except StopIteration as done:
        legs.pop(key, None)
        reduced[key] = done.value
