"""Fault-tolerant reduction units: faults never accept, budgets degrade.

The oracle doubles here are deliberately toy — the reducer treats sequence
elements as black boxes, so lists of strings exercise the exact decision
pipeline the harness runs on real transformation sequences, without paying
for replays.
"""

from __future__ import annotations

import time

import pytest

from repro.core.reducer import reduce_transformations
from repro.robustness import (
    ProbeVerdict,
    ReductionPolicy,
    SupervisedTarget,
    reduce_with_faults,
)
from repro.robustness.config import RobustnessConfig

from tests.robustness.faults import FaultyTarget

SEQUENCE = list("abcdefgh")
NEEDLES = {"b", "f"}

#: A zero-latency policy for unit tests (no backoff sleeps between retries).
FAST = ReductionPolicy(retry_backoff=0.0)


def truth(candidate) -> bool:
    return NEEDLES.issubset(candidate)


def clean_oracle(candidate) -> ProbeVerdict:
    return ProbeVerdict(truth(candidate))


class TestCleanParity:
    """On a deterministic, well-behaved oracle the pipeline is the raw
    reducer: same sequence, same tests_run, no degradation."""

    def test_matches_raw_reducer(self):
        raw = reduce_transformations(SEQUENCE, truth)
        hardened = reduce_with_faults(SEQUENCE, clean_oracle, FAST)
        assert hardened.transformations == raw.transformations
        assert hardened.tests_run == raw.tests_run
        assert hardened.chunks_removed == raw.chunks_removed
        assert hardened.degraded is None
        assert hardened.timed_out is False

    def test_stability_accounting_present(self):
        result = reduce_with_faults(SEQUENCE, clean_oracle, FAST)
        stability = result.stability
        assert stability is not None
        # Votes cost extra probes beyond the reducer's logical tests.
        assert stability["probes"] > result.tests_run
        assert stability["escalation_probes"] > 0  # acceptance confirmations
        assert stability["disagreements"] == 0
        assert stability["faults"] == {}
        assert stability["escalated"] is False

    def test_non_interesting_input_still_raises(self):
        with pytest.raises(ValueError):
            reduce_with_faults(SEQUENCE, lambda c: ProbeVerdict(False), FAST)


class TestFaultsNeverAccept:
    def test_faulted_candidate_is_not_interesting(self):
        # Candidates that drop "h" would be accepted by the truth — but every
        # probe of them faults, so the pipeline must keep "h" (treating the
        # removal as rejected), never accept on a fault.
        def oracle(candidate) -> ProbeVerdict:
            if truth(candidate) and "h" not in candidate:
                return ProbeVerdict(True, fault="timeout")
            return ProbeVerdict(truth(candidate))

        result = reduce_with_faults(SEQUENCE, oracle, FAST)
        assert "h" in result.transformations
        assert truth(result.transformations)
        assert result.degraded is None  # faults were absorbed, not fatal
        assert result.stability["faulted_candidates"] > 0
        assert result.stability["faults"]["timeout"] > 0
        # Each faulted decision burns the whole retry budget.
        assert result.stability["fault_retries"] > 0

    def test_retry_rescues_a_transient_fault(self):
        # Exactly one candidate faults once, then answers cleanly: the retry
        # budget absorbs it and the reduction is indistinguishable from a
        # clean run (aside from the accounting).
        state = {"faulted": False}

        def oracle(candidate) -> ProbeVerdict:
            if not state["faulted"] and len(candidate) == 4:
                state["faulted"] = True
                return ProbeVerdict(False, fault="worker-crash")
            return ProbeVerdict(truth(candidate))

        clean = reduce_with_faults(SEQUENCE, clean_oracle, FAST)
        rescued = reduce_with_faults(SEQUENCE, oracle, FAST)
        assert rescued.transformations == clean.transformations
        assert rescued.degraded is None
        assert rescued.stability["fault_retries"] == 1
        assert rescued.stability["faulted_candidates"] == 0

    def test_fault_budget_counts_attempts(self):
        # One candidate always faults: with fault_retries=3 it is probed
        # 1 + 3 times before the decision falls to the budget.  The reducer's
        # very first candidate (the input minus its trailing half-chunk) is
        # guaranteed to be tried, so that is the one we sabotage.
        probes = {"n": 0}
        target = tuple(SEQUENCE[: len(SEQUENCE) // 2])

        def oracle(candidate) -> ProbeVerdict:
            if tuple(candidate) == target:
                probes["n"] += 1
                return ProbeVerdict(False, fault="resource")
            return ProbeVerdict(truth(candidate))

        policy = ReductionPolicy(fault_retries=3, retry_backoff=0.0)
        result = reduce_with_faults(SEQUENCE, oracle, policy)
        assert probes["n"] == 4
        assert result.stability["faults"]["resource"] == 4
        assert truth(result.transformations)


class TestDegradation:
    def test_unresponsive_target_degrades_to_best_so_far(self):
        # The verify probe is clean; every candidate probe faults.  After
        # unresponsive_after consecutive faults the loop aborts with the
        # best-so-far (here: the verified input) instead of raising.
        def oracle(candidate) -> ProbeVerdict:
            if len(candidate) == len(SEQUENCE):
                return ProbeVerdict(truth(candidate))
            return ProbeVerdict(False, fault="timeout")

        policy = ReductionPolicy(
            fault_retries=0, retry_backoff=0.0, unresponsive_after=3
        )
        result = reduce_with_faults(SEQUENCE, oracle, policy)
        assert result.degraded == "target-unresponsive"
        assert result.transformations == SEQUENCE
        assert result.stability["faults"]["timeout"] == 3

    def test_verify_fault_returns_input(self):
        # Nothing can be probed at all: the input comes back untouched with
        # a structured reason, not an exception and not a ValueError.  The
        # unresponsive threshold is disabled so the *verify* fault path is
        # what fires (with the default threshold the consecutive-fault abort
        # would win the race during verify's majority vote).
        def oracle(candidate) -> ProbeVerdict:
            return ProbeVerdict(False, fault="worker-crash")

        policy = ReductionPolicy(
            fault_retries=1, retry_backoff=0.0, unresponsive_after=None
        )
        result = reduce_with_faults(SEQUENCE, oracle, policy)
        assert result.degraded == "verify-faulted"
        assert result.transformations == SEQUENCE
        assert result.final_length == result.initial_length

    def test_oracle_error_degrades_instead_of_raising(self):
        calls = {"n": 0}

        def oracle(candidate) -> ProbeVerdict:
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("supervisor machinery died")
            return ProbeVerdict(truth(candidate))

        result = reduce_with_faults(SEQUENCE, oracle, FAST)
        assert result.degraded == "oracle-error: RuntimeError"
        assert truth(result.transformations)  # best-so-far is still interesting

    def test_pipeline_reports_a_degraded_ddmin_leg_once(self, tmp_path):
        """A fault-mode ``PassPipeline(["ddmin"])`` whose oracle raises is
        one degraded reduction: one ``reduce.degraded`` event, a counter of
        1, and the same ``degraded``/``stability`` as the classic path."""
        from repro.observability import Metrics, Tracer, read_trace
        from repro.reduce import PassPipeline, PipelineContext

        def failing_oracle():
            calls = {"n": 0}

            def oracle(candidate) -> ProbeVerdict:
                calls["n"] += 1
                if calls["n"] > 3:
                    raise RuntimeError("supervisor machinery died")
                return ProbeVerdict(truth(candidate))

            return oracle

        classic = reduce_with_faults(SEQUENCE, failing_oracle(), FAST)
        metrics = Metrics()
        tracer = Tracer(tmp_path / "trace.jsonl")
        try:
            piped = PassPipeline(["ddmin"]).run(
                SEQUENCE,
                PipelineContext(
                    verdict_test=failing_oracle(),
                    policy=FAST,
                    tracer=tracer,
                    metrics=metrics,
                ),
            )
        finally:
            tracer.close()
        degraded = [
            event
            for event in read_trace(tmp_path / "trace.jsonl")
            if event["ev"] == "reduce.degraded"
        ]
        assert len(degraded) == 1
        assert degraded[0]["reason"] == "oracle-error: RuntimeError"
        assert metrics.counter("reduce.degraded") == 1
        assert metrics.counter("reduce.degraded.oracle-error") == 1
        assert piped.degraded == classic.degraded == "oracle-error: RuntimeError"
        assert piped.stability == classic.stability

    def test_exhausted_budget_degrades(self):
        result = reduce_with_faults(
            SEQUENCE,
            clean_oracle,
            ReductionPolicy(retry_backoff=0.0, max_seconds=0.0),
        )
        assert result.timed_out is True
        assert result.degraded == "budget-exhausted"
        assert truth(result.transformations)


class TestProbeTimeoutClamp:
    def test_hung_probe_cannot_overshoot_the_budget(self):
        """A probe that would hang for an hour is cut at the *remaining*
        reduction budget, not at its own (much larger) probe timeout."""
        hang = FaultyTarget(mode="hang")
        supervised = SupervisedTarget(
            hang, RobustnessConfig(probe_timeout=3600.0)
        )

        def oracle(candidate) -> ProbeVerdict:
            if len(candidate) == len(SEQUENCE):
                return ProbeVerdict(True)  # verify passes without probing
            outcome = supervised.run(None, {})
            return ProbeVerdict(False, fault=outcome.kind.value)

        policy = ReductionPolicy(
            fault_retries=0,
            retry_backoff=0.0,
            unresponsive_after=None,
            max_seconds=0.5,
        )
        started = time.monotonic()
        try:
            result = reduce_with_faults(
                SEQUENCE, oracle, policy, supervised_target=supervised
            )
        finally:
            supervised.close()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0  # one clamped probe, nowhere near 3600s
        assert result.degraded == "budget-exhausted"
        assert result.transformations == SEQUENCE
        assert result.stability["faults"].get("timeout", 0) >= 1

    def test_override_is_cleared_afterwards(self):
        class FakeSupervised:
            override = "untouched"

            def set_timeout_override(self, timeout):
                self.override = timeout

        fake = FakeSupervised()
        reduce_with_faults(
            SEQUENCE,
            clean_oracle,
            ReductionPolicy(retry_backoff=0.0, max_seconds=30.0),
            supervised_target=fake,
        )
        assert fake.override is None  # the clamp does not leak past the run
