"""Supervised probes: faults become outcomes; clean probes are unchanged."""

from __future__ import annotations

import pytest

from repro.compilers import make_target
from repro.compilers.base import OutcomeKind
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness, classify_outcome
from repro.corpus import donor_programs, reference_programs
from repro.ir.printer import disassemble
from repro.robustness import RobustnessConfig, SupervisedTarget

from tests.robustness.faults import PROBE_TIMEOUT, FaultyTarget, result_key


@pytest.fixture()
def program():
    return reference_programs()[0]


def _supervised(target, **overrides):
    config = RobustnessConfig(
        probe_timeout=overrides.pop("probe_timeout", PROBE_TIMEOUT), **overrides
    )
    return SupervisedTarget(target, config)


class TestSupervisedOutcomes:
    def test_clean_probe_outcome_equals_in_process(self, program):
        target = make_target("SwiftShader")
        supervised = _supervised(make_target("SwiftShader"), probe_timeout=30.0)
        try:
            direct = target.run(program.module, program.inputs)
            remote = supervised.run(program.module, program.inputs)
        finally:
            supervised.close()
        assert remote == direct

    def test_crash_outcome_survives_supervision(self, program):
        # An injected CompilerCrash is a *compiler* bug, not a process fault:
        # the supervised outcome must keep the crash signature intact.
        import random

        from repro.core.fuzzer import Fuzzer, FuzzerOptions

        target = make_target("NVIDIA")
        supervised = _supervised(make_target("NVIDIA"), probe_timeout=30.0)
        try:
            for seed in range(30):
                fuzzed = Fuzzer([], FuzzerOptions(max_transformations=60)).run(
                    program.module, program.inputs, seed
                )
                direct = target.run(fuzzed.variant, fuzzed.context.inputs)
                remote = supervised.run(fuzzed.variant, fuzzed.context.inputs)
                assert remote == direct
                if direct.kind is OutcomeKind.CRASH:
                    break
            else:
                pytest.skip("workload produced no crash to compare")
        finally:
            supervised.close()

    def test_hang_maps_to_timeout(self, program):
        supervised = _supervised(FaultyTarget("hang"))
        try:
            outcome = supervised.run(program.module, program.inputs)
        finally:
            supervised.close()
        assert outcome.kind is OutcomeKind.TIMEOUT

    def test_memory_error_maps_to_resource(self, program):
        supervised = _supervised(FaultyTarget("oom"))
        try:
            outcome = supervised.run(program.module, program.inputs)
        finally:
            supervised.close()
        assert outcome.kind is OutcomeKind.RESOURCE

    def test_real_allocation_hits_memory_cap(self, program):
        pytest.importorskip("resource")
        headroom = _vm_size_mb() + 512
        supervised = _supervised(
            FaultyTarget("alloc"), probe_timeout=60.0, memory_limit_mb=headroom
        )
        try:
            outcome = supervised.run(program.module, program.inputs)
        finally:
            supervised.close()
        assert outcome.kind in (OutcomeKind.RESOURCE, OutcomeKind.WORKER_CRASH)

    def test_unhandled_exception_maps_to_worker_crash(self, program):
        supervised = _supervised(FaultyTarget("raise"))
        try:
            outcome = supervised.run(program.module, program.inputs)
        finally:
            supervised.close()
        assert outcome.kind is OutcomeKind.WORKER_CRASH
        assert "ZeroDivisionError" in outcome.crash_message

    def test_hard_exit_maps_to_worker_crash(self, program):
        supervised = _supervised(FaultyTarget("exit"))
        try:
            outcome = supervised.run(program.module, program.inputs)
        finally:
            supervised.close()
        assert outcome.kind is OutcomeKind.WORKER_CRASH

    def test_worker_restarts_after_fault(self, program):
        """One bad probe costs one process — the next probe still answers."""
        other = reference_programs()[1]
        faulty = FaultyTarget("exit", reference_text=disassemble(program.module))
        supervised = _supervised(faulty)
        try:
            clean = supervised.run(program.module, program.inputs)
            assert clean.kind is OutcomeKind.OK
            crashed = supervised.run(other.module, other.inputs)
            assert crashed.kind is OutcomeKind.WORKER_CRASH
            recovered = supervised.run(program.module, program.inputs)
            assert recovered.kind is OutcomeKind.OK
        finally:
            supervised.close()

    @pytest.mark.parametrize(
        "mode, fault",
        [("hang", OutcomeKind.TIMEOUT), ("oom", OutcomeKind.RESOURCE)],
        ids=["hang", "oom"],
    )
    def test_next_probe_runs_on_a_fresh_worker(self, program, mode, fault):
        """A worker that hung or ran out of memory is replaced: the next
        probe answers exactly as it would in process."""
        other = reference_programs()[1]
        faulty = FaultyTarget(
            mode,
            reference_text=disassemble(program.module),
            inner=make_target("SwiftShader"),
        )
        supervised = _supervised(faulty)
        try:
            clean = supervised.run(program.module, program.inputs)
            assert clean == faulty.run(program.module, program.inputs)
            first_pid = supervised._worker.process.pid
            assert supervised.run(other.module, other.inputs).kind is fault
            assert supervised.run(program.module, program.inputs) == clean
            assert supervised._worker.process.pid != first_pid
        finally:
            supervised.close()


def test_supervised_campaign_equals_the_in_process_reference():
    """Supervision changes where a probe runs, never what it answers: one
    request and one outcome per probe, so the findings and the probe count
    equal the uncached in-process campaign's."""

    def campaign(**kwargs):
        harness = Harness(
            [make_target("SwiftShader"), make_target("NVIDIA")],
            reference_programs()[:4],
            donor_programs(),
            FuzzerOptions(max_transformations=40),
            **kwargs,
        )
        try:
            return harness.run_campaign(range(8)), harness.metrics.counter("probes")
        finally:
            harness.close()

    plain, plain_probes = campaign(probe_cache=False)
    supervised, supervised_probes = campaign(
        robustness=RobustnessConfig(probe_timeout=30.0)
    )
    assert plain.findings, "workload produced no findings to compare"
    assert result_key(supervised) == result_key(plain)
    assert supervised_probes == plain_probes


def _vm_size_mb() -> int:
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmSize"):
                return int(line.split()[1]) // 1024
    return 0


class TestClassifyFaultOutcomes:
    def test_variant_timeout_is_a_finding(self):
        from repro.compilers.base import TargetOutcome
        from repro.interp.interpreter import ExecutionResult

        reference = TargetOutcome.ok(ExecutionResult())
        classified = classify_outcome(TargetOutcome.timeout(1.0), reference)
        assert classified is not None
        signature, kind, _ = classified
        assert kind == "timeout" and signature == "probe-timeout"

    def test_reference_fault_suppresses_classification(self):
        from repro.compilers.base import TargetOutcome

        reference = TargetOutcome.timeout(1.0)
        assert classify_outcome(TargetOutcome.crash("boom"), reference) is None
        assert classify_outcome(TargetOutcome.timeout(1.0), reference) is None

    def test_reference_without_result_does_not_assert(self):
        from repro.compilers.base import OutcomeKind, TargetOutcome
        from repro.interp.interpreter import ExecutionResult

        # A pathological OK outcome with no result must classify to None
        # (pre-existing misbehavior), not trip an assertion.
        reference = TargetOutcome(OutcomeKind.OK, result=None)
        outcome = TargetOutcome.ok(ExecutionResult())
        assert classify_outcome(outcome, reference) is None

    def test_worker_crash_signature_carries_detail(self):
        from repro.compilers.base import TargetOutcome
        from repro.interp.interpreter import ExecutionResult

        reference = TargetOutcome.ok(ExecutionResult())
        classified = classify_outcome(
            TargetOutcome.worker_crash("unhandled ZeroDivisionError: x / 0"),
            reference,
        )
        assert classified is not None
        signature, kind, _ = classified
        assert kind == "worker-crash"
        assert "ZeroDivisionError" in signature
