"""Graceful degradation: fault budgets quarantine misbehaving targets, flaky
verdicts are flagged, and supervision never changes what reduction produces."""

from __future__ import annotations

import pytest

from repro.compilers import make_target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.core.transformation import sequence_to_json
from repro.corpus import donor_programs, reference_programs
from repro.ir.printer import disassemble
from repro.reduce import ReductionConfig
from repro.robustness import RobustnessConfig

from tests.robustness.faults import (
    PROBE_TIMEOUT,
    FaultyTarget,
    FlakyTarget,
    finding_key,
    result_key,
)

REFERENCE = reference_programs()[0]
SEEDS = list(range(6))
OPTIONS = FuzzerOptions(max_transformations=60)


def _mixed_harness() -> Harness:
    """Hanging + hard-crashing targets alongside a clean Table 2 target."""
    text = disassemble(REFERENCE.module)
    targets = [
        FaultyTarget("hang", name="Hangy", reference_text=text),
        FaultyTarget("exit", name="Exity", reference_text=text),
        make_target("SwiftShader"),
    ]
    return Harness(
        targets,
        [REFERENCE],
        donor_programs(),
        OPTIONS,
        robustness=RobustnessConfig(
            probe_timeout=PROBE_TIMEOUT, quarantine_after=2
        ),
    )


class TestQuarantine:
    def test_mixed_fault_campaign_completes_and_quarantines(self):
        harness = _mixed_harness()
        try:
            result = harness.run_campaign(SEEDS)
        finally:
            harness.close()
        assert set(result.quarantined) == {"Hangy", "Exity"}
        kinds = {
            f.kind for f in result.findings if f.target_name in ("Hangy", "Exity")
        }
        assert kinds == {"timeout", "worker-crash"}
        # Once the budget is spent the targets are skipped, not probed.
        late = [run for run in result.seed_runs if run.seed >= 2]
        assert late
        for run in late:
            assert {"Hangy", "Exity"} <= set(run.skipped_targets)
            assert not run.faults

    def test_clean_target_findings_unchanged_by_faulty_peers(self):
        harness = _mixed_harness()
        try:
            mixed = harness.run_campaign(SEEDS)
        finally:
            harness.close()
        plain = Harness(
            [make_target("SwiftShader")], [REFERENCE], donor_programs(), OPTIONS
        ).run_campaign(SEEDS)

        def swiftshader_keys(result):
            return [
                finding_key(f)
                for f in result.findings
                if f.target_name == "SwiftShader"
            ]

        assert swiftshader_keys(mixed) == swiftshader_keys(plain)

    def test_fault_campaign_resumes_with_quarantine_intact(self, tmp_path):
        full_journal = tmp_path / "full.jsonl"
        harness = _mixed_harness()
        try:
            full = harness.run_campaign(SEEDS, journal=full_journal)
        finally:
            harness.close()

        lines = full_journal.read_text().splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:3]))  # killed after seed 2
        resumed_harness = _mixed_harness()
        try:
            resumed = resumed_harness.run_campaign(
                SEEDS, journal=partial, resume=True
            )
        finally:
            resumed_harness.close()

        assert result_key(resumed) == result_key(full)
        assert partial.read_text() == full_journal.read_text()


class TestFlakyVerdicts:
    def test_flaky_finding_flagged_nondeterministic(self):
        harness = Harness(
            [FlakyTarget()],
            [REFERENCE],
            donor_programs(),
            OPTIONS,
            robustness=RobustnessConfig(retries=1, retry_backoff=0.0),
        )
        run = harness.run_seed(0)
        assert run.findings
        assert all(f.nondeterministic for f in run.findings)

    def test_stable_findings_stay_unflagged(self, nvidia_finding):
        _, finding = nvidia_finding
        harness = Harness(
            [make_target("NVIDIA")],
            reference_programs(),
            donor_programs(),
            OPTIONS,
            robustness=RobustnessConfig(retries=2, retry_backoff=0.0),
        )
        run = harness.run_seed(finding.seed)
        assert run.findings
        assert not any(f.nondeterministic for f in run.findings)


@pytest.fixture(scope="module")
def nvidia_finding():
    harness = Harness(
        [make_target("NVIDIA")], reference_programs(), donor_programs(), OPTIONS
    )
    for seed in range(25):
        run = harness.run_seed(seed)
        if run.findings:
            return harness, run.findings[0]
    pytest.skip("no NVIDIA finding in 25 seeds")


class TestReductionParity:
    def test_reduced_sequence_unchanged_when_no_faults_fire(self, nvidia_finding):
        plain_harness, finding = nvidia_finding
        supervised = Harness(
            [make_target("NVIDIA")],
            reference_programs(),
            donor_programs(),
            OPTIONS,
            robustness=RobustnessConfig(probe_timeout=30.0),
        )
        try:
            run = supervised.run_seed(finding.seed)
            twin = next(
                f
                for f in run.findings
                if f.signature == finding.signature and f.kind == finding.kind
            )
            plain = plain_harness.reduce_finding(finding)
            shielded = supervised.reduce_finding(twin)
        finally:
            supervised.close()
        assert sequence_to_json(plain.transformations) == sequence_to_json(
            shielded.transformations
        )
        assert not plain.timed_out and not shielded.timed_out

    def test_reduction_time_budget_returns_best_so_far(self, nvidia_finding):
        harness, finding = nvidia_finding
        exhausted = harness.reduce_finding(
            finding, ReductionConfig(max_seconds=0.0)
        )
        assert exhausted.timed_out
        assert exhausted.final_length == len(finding.transformations)

        unbounded = harness.reduce_finding(finding)
        generous = harness.reduce_finding(
            finding, ReductionConfig(max_seconds=300.0)
        )
        assert not generous.timed_out
        assert sequence_to_json(generous.transformations) == sequence_to_json(
            unbounded.transformations
        )
