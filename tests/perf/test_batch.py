"""Batched probe evaluation: one worker round-trip for N candidates, with
results identical to N single round-trips — including under faults."""

from __future__ import annotations

import pytest

from repro.compilers import make_target
from repro.compilers.base import OutcomeKind, TargetOutcome
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.harness import Harness
from repro.core.transformation import sequence_to_json
from repro.ir.printer import disassemble
from repro.perf import CachingTarget, ProbeBatch, ProbeCache
from repro.reduce import ReductionConfig
from repro.robustness import RobustnessConfig, SupervisedTarget
from tests.robustness.faults import PROBE_TIMEOUT, FaultyTarget, result_key


def _variants(program, seeds, max_transformations=40):
    fuzzer = Fuzzer([], FuzzerOptions(max_transformations=max_transformations))
    out = []
    for seed in seeds:
        result = fuzzer.run(program.module, program.inputs, seed)
        out.append((result.variant, result.context.inputs))
    return out


class TestSupervisedBatch:
    def test_batch_equals_per_item_runs(self, references):
        program = references[0]
        items = _variants(program, range(4))
        supervised = SupervisedTarget(
            make_target("NVIDIA"), RobustnessConfig(probe_timeout=30.0)
        )
        try:
            singles = [supervised.run(m, i) for m, i in items]
            batched = supervised.run_batch(items)
        finally:
            supervised.close()
        assert batched == singles

    def test_single_item_batch(self, references):
        program = references[0]
        supervised = SupervisedTarget(
            make_target("SwiftShader"), RobustnessConfig(probe_timeout=30.0)
        )
        try:
            single = supervised.run(program.module, program.inputs)
            batched = supervised.run_batch([(program.module, program.inputs)])
        finally:
            supervised.close()
        assert batched == [single]

    def test_hang_inside_a_batch_times_out(self, references):
        program = references[0]
        supervised = SupervisedTarget(
            FaultyTarget("hang"),
            RobustnessConfig(probe_timeout=PROBE_TIMEOUT),
        )
        try:
            outcomes = supervised.run_batch(
                [(program.module, program.inputs)] * 2
            )
        finally:
            supervised.close()
        assert all(o.kind is OutcomeKind.TIMEOUT for o in outcomes)

    def test_crash_mid_batch_recovers_remaining_items(self, references):
        program = references[0]
        supervised = SupervisedTarget(
            FaultyTarget("exit"),
            RobustnessConfig(probe_timeout=PROBE_TIMEOUT),
        )
        try:
            outcomes = supervised.run_batch(
                [(program.module, program.inputs)] * 3
            )
        finally:
            supervised.close()
        assert len(outcomes) == 3
        assert all(o.kind is OutcomeKind.WORKER_CRASH for o in outcomes)

    @pytest.mark.parametrize(
        "mode, fault",
        [("exit", OutcomeKind.WORKER_CRASH), ("hang", OutcomeKind.TIMEOUT)],
        ids=["exit", "hang"],
    )
    def test_fault_mid_batch_charges_only_the_faulty_item(
        self, references, mode, fault
    ):
        """A worker that dies or hangs on one item answers for that item
        alone: the items after it rerun on a fresh worker, so the batch
        equals per-item runs."""
        program, other = references[0], references[1]
        clean = (program.module, program.inputs)
        items = [clean, (other.module, other.inputs), clean]
        supervised = SupervisedTarget(
            FaultyTarget(
                mode,
                reference_text=disassemble(program.module),
                inner=make_target("SwiftShader"),
            ),
            RobustnessConfig(probe_timeout=PROBE_TIMEOUT),
        )
        try:
            singles = [supervised.run(m, i) for m, i in items]
            batched = supervised.run_batch(items)
        finally:
            supervised.close()
        assert [o.kind for o in singles] == [OutcomeKind.OK, fault, OutcomeKind.OK]
        assert batched == singles


class _CountingBatchTarget:
    """A batch-capable double that counts round-trips."""

    name = "counting"
    version = "1"
    gpu_type = "test"
    enabled_bugs = frozenset()

    def __init__(self, inner):
        self.inner = inner
        self.batch_calls = 0
        self.run_calls = 0

    def run(self, module, inputs=None):
        self.run_calls += 1
        return self.inner.run(module, inputs)

    def run_batch(self, items):
        self.batch_calls += 1
        return [self.inner.run(m, i) for m, i in items]


class TestCachingTargetBatch:
    def test_only_misses_are_forwarded(self, references):
        program = references[0]
        items = _variants(program, range(3))
        cache = ProbeCache()
        counting = _CountingBatchTarget(make_target("SwiftShader"))
        wrapped = CachingTarget(counting, cache)
        first = wrapped.run_batch(items)
        second = wrapped.run_batch(items)
        assert second == first
        assert counting.batch_calls == 1  # everything hit on the second pass
        assert cache.stats.outcome_hits == len(items)

    def test_staged_target_batches_through_the_stage_memo(self, references):
        program = references[0]
        items = _variants(program, range(3))
        plain = make_target("SwiftShader")
        wrapped = CachingTarget(make_target("SwiftShader"), ProbeCache())
        assert wrapped.run_batch(items) == [plain.run(m, i) for m, i in items]


class TestProbeBatchFallback:
    def test_batchless_target_runs_per_item(self, references):
        program = references[0]
        items = _variants(program, range(3))
        target = make_target("SwiftShader")  # plain Target: no run_batch
        batch = ProbeBatch(target)
        assert batch.run(items) == [target.run(m, i) for m, i in items]

    def test_empty_batch(self):
        assert ProbeBatch(make_target("SwiftShader")).run([]) == []


def _harness(references, donors, **kwargs):
    return Harness(
        [make_target("SwiftShader"), make_target("spirv-opt")],
        references,
        donors,
        FuzzerOptions(max_transformations=40),
        **kwargs,
    )


class TestBatchedFlows:
    def test_batched_campaign_findings_identical(self, references, donors):
        seeds = range(8)
        plain = _harness(references, donors).run_campaign(seeds)
        batched_harness = _harness(
            references,
            donors,
            robustness=RobustnessConfig(probe_timeout=30.0),
            batch_probes=True,
        )
        try:
            batched = batched_harness.run_campaign(seeds)
        finally:
            batched_harness.close()
        assert result_key(batched) == result_key(plain)
        assert plain.findings, "workload produced no findings to compare"
        assert batched_harness.metrics.counter("probe_batch.batches") > 0

    def test_batched_speculative_reduction_identical(self, references, donors):
        plain_harness = _harness(references, donors)
        finding = plain_harness.run_campaign(range(8)).findings[0]
        plain = plain_harness.reduce_finding(finding)
        batched = _harness(references, donors).reduce_finding(
            finding, ReductionConfig(workers=2, probe_batch=2)
        )
        assert sequence_to_json(batched.transformations) == sequence_to_json(
            plain.transformations
        )
        assert batched.tests_run == plain.tests_run
        assert batched.history == plain.history
