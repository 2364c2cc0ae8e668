"""Campaign harness for the glsl-fuzz baseline: the same Figure 1 flow as
:mod:`repro.core.harness`, with cross-compilation in front of every target
run (as gfauto does for glsl-fuzz)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.baseline import ast
from repro.baseline.corpus import SourceProgram
from repro.baseline.fuzzer import BaselineFuzzer
from repro.baseline.glslang import CompileError, compile_shader
from repro.baseline.reducer import BaselineReductionResult, reduce_shader
from repro.compilers.base import TargetOutcome
from repro.compilers.pipeline import Target, optimize
from repro.core.harness import classify_outcome
from repro.observability import Metrics, as_tracer


@dataclass
class BaselineFinding:
    target_name: str
    program_name: str
    seed: int
    signature: str
    kind: str
    optimized_flow: bool
    shader: ast.Shader
    original: SourceProgram
    ground_truth_bug: str | None = None


@dataclass
class BaselineCampaignResult:
    findings: list[BaselineFinding] = field(default_factory=list)
    #: Targets quarantined during the campaign, with a reason each.
    quarantined: dict[str, str] = field(default_factory=dict)

    def signatures_for_target(self, target_name: str) -> set[str]:
        return {f.signature for f in self.findings if f.target_name == target_name}


class BaselineHarness:
    def __init__(
        self,
        targets: Sequence[Target],
        references: Sequence[SourceProgram],
        *,
        rounds: int = 25,
        optimized_flow: bool = True,
        robustness: "object | None" = None,
        tracer: "object | None" = None,
        metrics: Metrics | None = None,
    ) -> None:
        from repro.robustness import QuarantineTracker, supervise_targets

        self.tracer = as_tracer(tracer)
        self.metrics = metrics if metrics is not None else Metrics()
        self.robustness = robustness  # a RobustnessConfig, or None
        self.targets = (
            supervise_targets(targets, robustness, tracer=self.tracer)
            if robustness is not None
            else list(targets)
        )
        self.references = list(references)
        self.rounds = rounds
        self.fuzzer = BaselineFuzzer(rounds)
        self.optimized_flow = optimized_flow
        self.quarantine = QuarantineTracker(
            robustness.quarantine_after if robustness is not None else None
        )
        self._reference_outcomes: dict[tuple[str, str], TargetOutcome] = {}

    def close(self) -> None:
        """Shut down any supervised probe workers (idempotent)."""
        from repro.robustness import close_targets

        close_targets(self.targets)

    def _probe(self, target: Target, module, inputs) -> TargetOutcome:
        started = time.perf_counter()
        outcome = target.run(module, inputs)
        self.metrics.observe("probe_seconds", time.perf_counter() - started)
        self.metrics.inc("probes")
        self.tracer.emit("probe", target=target.name, outcome=outcome.kind.value)
        if outcome.is_fault:
            kind = outcome.kind.value
            self.metrics.inc("faults")
            self.metrics.inc(f"faults.{kind}")
            self.tracer.emit("fault", target=target.name, kind=kind)
            quarantined_before = self.quarantine.is_quarantined(target.name)
            self.quarantine.record_fault(target.name, outcome)
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

    def reference_outcome(self, target: Target, program: SourceProgram) -> TargetOutcome:
        key = (target.name, program.name)
        cached = self._reference_outcomes.get(key)
        if cached is None:
            cached = target.run(compile_shader(program.shader), program.inputs)
            if not cached.is_fault:  # a transient fault is re-probed
                self._reference_outcomes[key] = cached
        return cached

    def run_seed(self, seed: int) -> list[BaselineFinding]:
        program = self.references[seed % len(self.references)]
        self.tracer.emit("seed.begin", seed=seed, program=program.name)
        seed_started = time.perf_counter()
        fuzzed = self.fuzzer.run(program, seed)
        try:
            variant_module = compile_shader(fuzzed.variant)
        except CompileError:  # defensive: transformations should never break this
            return []
        findings = []
        optimized_module = None
        for target in self.targets:
            if self.quarantine.is_quarantined(target.name):
                continue
            reference = self.reference_outcome(target, program)
            outcome = self._probe(target, variant_module, program.inputs)
            classified = classify_outcome(outcome, reference)
            optimized_flow = False
            if classified is None and self.optimized_flow:
                if optimized_module is None:
                    optimized_module = optimize(variant_module)
                outcome = self._probe(target, optimized_module, program.inputs)
                classified = classify_outcome(outcome, reference)
                optimized_flow = True
            if classified is None:
                continue
            signature, kind, ground_truth = classified
            self.metrics.inc("findings")
            self.metrics.inc(f"findings.{kind}")
            self.tracer.emit(
                "finding",
                seed=seed,
                target=target.name,
                kind=kind,
                signature=signature,
                optimized_flow=optimized_flow,
            )
            findings.append(
                BaselineFinding(
                    target_name=target.name,
                    program_name=program.name,
                    seed=seed,
                    signature=signature,
                    kind=kind,
                    optimized_flow=optimized_flow,
                    shader=fuzzed.variant,
                    original=program,
                    ground_truth_bug=ground_truth,
                )
            )
        self.metrics.inc("seeds")
        self.metrics.observe("seed_seconds", time.perf_counter() - seed_started)
        self.tracer.emit(
            "seed.end",
            seed=seed,
            program=program.name,
            findings=len(findings),
            dur_s=round(time.perf_counter() - seed_started, 6),
        )
        return findings

    def run_campaign(
        self,
        seeds: Sequence[int],
        *,
        workers: int = 1,
        spec: "object | None" = None,
    ) -> BaselineCampaignResult:
        """Run every seed; ``workers > 1`` shards seeds across a process pool
        with results merged back in seed order (byte-identical to serial)."""
        if workers == 1:
            result = BaselineCampaignResult()
            for seed in seeds:
                result.findings.extend(self.run_seed(seed))
            result.quarantined = self.quarantine.report()
            return result

        from repro.perf.parallel import seed_shards
        from repro.perf.pool import WorkerPool

        result = BaselineCampaignResult()
        with WorkerPool({"campaign": spec or self.campaign_spec()}, workers) as pool:
            for shard in pool.map("campaign", seed_shards(seeds, pool.workers)):
                for findings in shard:
                    result.findings.extend(findings)
            self.metrics.merge(pool.delta("campaign"))
        result.quarantined = self.quarantine.report()
        return result

    def campaign_spec(self) -> "object":
        """A picklable spec that rebuilds this harness in a worker process."""
        from repro.baseline.corpus import source_programs
        from repro.compilers import make_target
        from repro.perf.parallel import CampaignSpec, spec_names_for

        for target in self.targets:
            make_target(target.name)  # raises KeyError for non-Table-2 targets
        trace_path = getattr(self.tracer, "path", None)
        return CampaignSpec(
            kind="baseline",
            target_names=tuple(t.name for t in self.targets),
            reference_names=spec_names_for(self.references, source_programs),
            rounds=self.rounds,
            optimized_flow=self.optimized_flow,
            robustness=self.robustness,
            trace=str(trace_path) if trace_path is not None else None,
        )

    # -- reduction ---------------------------------------------------------------

    def make_interestingness_test(self, finding: BaselineFinding) -> Callable:
        target = next(t for t in self.targets if t.name == finding.target_name)
        reference = self.reference_outcome(target, finding.original)

        def is_interesting(shader: ast.Shader) -> bool:
            try:
                module = compile_shader(shader)
            except CompileError:
                return False
            if finding.optimized_flow:
                module = optimize(module)
            outcome = target.run(module, finding.original.inputs)
            classified = classify_outcome(outcome, reference)
            if classified is None:
                return False
            signature, kind, _ = classified
            return kind == finding.kind and signature == finding.signature

        return is_interesting

    def reduce_finding(self, finding: BaselineFinding) -> BaselineReductionResult:
        return reduce_shader(finding.shader, self.make_interestingness_test(finding))
