"""``ReductionConfig``: the one carrier of a reduction run's fixed knobs.

It rejects combinations that would silently drop a setting, resolves the
run's worker count and fault policy in one place, and ``reduce_finding`` is
``reduce_all`` of one finding — same result, same ``reduce.*`` events.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.cli import reduce_main
from repro.compilers import make_target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.corpus import donor_programs, reference_programs
from repro.perf import default_worker_count
from repro.perf.replay_cache import CachedReplayer
from repro.reduce import DEFAULT_GIVEUP, DEFAULT_PASS_NAMES, ReductionConfig
from repro.robustness import ReductionPolicy, RobustnessConfig

from tests.test_cli_reduce_golden import LOG


class TestRejections:
    def test_giveup_needs_passes(self):
        with pytest.raises(ValueError, match="giveup"):
            ReductionConfig(giveup=200)
        with pytest.raises(ValueError, match="giveup"):
            ReductionConfig(passes=["ddmin"], giveup=200)
        budgeted = ReductionConfig(passes=["ddmin", "type-batch"], giveup=200)
        assert budgeted.giveup == 200

    def test_one_budget(self):
        """The wall-clock budget is ``ReductionConfig.max_seconds`` alone:
        the fault policy carries none of its own."""
        assert ReductionConfig(max_seconds=5.0).max_seconds == 5.0
        with pytest.raises(TypeError):
            ReductionPolicy(max_seconds=5.0)

    def test_cli_reports_the_config_message(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            reduce_main([str(LOG), "--target", "SwiftShader", "--giveup", "5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "giveup budgets the pass pipeline" in err
        assert "--giveup requires --reduce-passes" in err

    @pytest.mark.parametrize(
        "passes, message",
        [("ddmin,nope", "unknown reduction pass 'nope'"), (" , ", "at least one pass")],
    )
    def test_cli_rejects_bad_pass_lists(self, passes, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            reduce_main(
                [str(LOG), "--target", "SwiftShader", "--reduce-passes", passes]
            )
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestResolve:
    def test_passes_are_frozen_and_resolve_to_a_pipeline(self):
        config = ReductionConfig(passes=["type-batch", "ddmin"])
        assert config.passes == ("type-batch", "ddmin")
        hash(config)
        pipeline = config.pipeline()
        assert [p.name for p in pipeline.passes] == ["type-batch", "ddmin"]
        assert pipeline.giveup == DEFAULT_GIVEUP

    def test_the_default_is_ddmin_alone(self):
        assert ReductionConfig() == ReductionConfig(passes=["ddmin"])
        pipeline = ReductionConfig().pipeline()
        assert [p.name for p in pipeline.passes] == ["ddmin"]
        assert not pipeline.budgeted

    def test_zero_workers_means_one_per_cpu(self):
        assert ReductionConfig().resolve().workers == 1
        resolved = ReductionConfig(workers=0).resolve()
        assert resolved.workers == default_worker_count()

    def test_plain_run_has_no_policy(self):
        resolved = ReductionConfig(max_seconds=3.0).resolve()
        assert resolved.policy is None
        assert resolved.max_seconds == 3.0

    def test_fault_run_keeps_its_policy_and_the_config_budget(self):
        resolved = ReductionConfig(max_seconds=3.0).resolve(journaled=True)
        assert resolved.policy == ReductionPolicy()
        assert resolved.max_seconds == 3.0

        given = ReductionPolicy(fault_retries=1)
        resolved = ReductionConfig(policy=given, max_seconds=3.0).resolve()
        assert resolved.policy is given
        assert resolved.max_seconds == 3.0

    def test_supervising_harness_inherits_its_backoff(self):
        robustness = RobustnessConfig(retry_backoff=0.5, retry_jitter_seed=7)
        resolved = ReductionConfig().resolve(robustness=robustness)
        assert resolved.policy == ReductionPolicy.from_robustness(robustness)


#: Reduction events whose order and fields do not depend on speculation
#: timing (dispatch/commit interleaving over a pool varies run to run).
DETERMINISTIC = {"reduce.begin", "reduce.round", "reduce.pass", "reduce.end"}
#: Fields that vary with the wall clock or with speculation.
VOLATILE = {"ts", "pid", "dur_s", "cache", "speculation"}


def _reduce_events(path):
    """The deterministic ``reduce.*`` events of a trace, minus their
    volatile fields."""
    events = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        if event["ev"] in DETERMINISTIC:
            events.append({k: v for k, v in event.items() if k not in VOLATILE})
    return events


def _arith_mix_findings(seeds):
    program = next(p for p in reference_programs() if p.name == "arith_mix_0")
    harness = Harness(
        [make_target("SwiftShader")], [program], donor_programs(), FuzzerOptions()
    )
    return [f for seed in seeds for f in harness.run_seed(seed, program).findings]


class TestOneBody:
    @pytest.fixture(scope="class")
    def finding(self):
        (finding,) = _arith_mix_findings([0])
        return finding

    @pytest.fixture(scope="class")
    def findings(self):
        """Three SwiftShader crashes of different lengths and signatures."""
        findings = _arith_mix_findings([0, 3, 9])
        assert len(findings) == 3
        return findings

    def _traced(self, tmp_path, name, reduce):
        path = tmp_path / f"{name}.jsonl"
        harness = Harness(
            [make_target("SwiftShader")], reference_programs(), tracer=path
        )
        try:
            results = reduce(harness)
        finally:
            harness.close()
        return results, _reduce_events(path)

    @pytest.mark.parametrize(
        "config",
        [
            ReductionConfig(),
            ReductionConfig(passes=["ddmin"]),
            ReductionConfig(workers=2),
        ],
        ids=["classic", "pipeline", "pooled"],
    )
    def test_reduce_finding_is_reduce_all_of_one(self, finding, config, tmp_path):
        (alone,), alone_events = self._traced(
            tmp_path, "alone", lambda h: [h.reduce_finding(finding, config)]
        )
        (batch,), batch_events = self._traced(
            tmp_path, "batch", lambda h: h.reduce_all([finding], config)
        )
        assert batch.to_json() == alone.to_json()
        assert batch.history == alone.history
        assert batch_events == alone_events
        assert alone_events[0]["ev"] == "reduce.begin"
        assert alone_events[-1]["ev"] == "reduce.end"

    def test_pooled_pipelines_match_each_finding_alone(self, findings):
        config = ReductionConfig(passes=DEFAULT_PASS_NAMES, workers=2)
        harness = Harness([make_target("SwiftShader")], reference_programs())
        try:
            pooled = harness.reduce_all(findings, config)
            alone = [harness.reduce_finding(f, config) for f in findings]
        finally:
            harness.close()
        assert [json.dumps(r.to_json()) for r in pooled] == [
            json.dumps(r.to_json()) for r in alone
        ]
        assert [r.history for r in pooled] == [r.history for r in alone]

    def test_pooled_rounds_are_keyed_by_finding(self, findings, tmp_path):
        """In one pooled trace the rounds of different findings interleave;
        grouped by their ``key``, each finding's rounds are the ones it
        emits when reduced alone."""
        config = ReductionConfig(workers=2)
        _, pooled = self._traced(
            tmp_path, "pooled", lambda h: h.reduce_all(findings, config)
        )

        def rounds(events, key):
            return [
                {k: v for k, v in event.items() if k != "key"}
                for event in events
                if event["ev"] == "reduce.round" and event["key"] == key
            ]

        for index, finding in enumerate(findings):
            _, alone = self._traced(
                tmp_path,
                f"alone-{index}",
                lambda h: [h.reduce_finding(finding, config)],
            )
            assert rounds(pooled, f"finding-{index}") == rounds(alone, "finding-0")
            assert rounds(alone, "finding-0")

    @pytest.mark.parametrize(
        "passes", [("ddmin",), DEFAULT_PASS_NAMES], ids=["ddmin", "default"]
    )
    def test_a_journaled_reduction_frees_its_replayer(self, finding, passes, tmp_path):
        """No reference cycle keeps a finished fault-tolerant reduction's
        replay snapshots alive until the next full garbage collection."""

        def replayers():
            return sum(isinstance(o, CachedReplayer) for o in gc.get_objects())

        harness = Harness([make_target("SwiftShader")], reference_programs())
        gc.collect()
        gc.disable()
        try:
            before = replayers()
            harness.reduce_finding(
                finding, ReductionConfig(passes=passes), journal=tmp_path / "j.jsonl"
            )
            after = replayers()
        finally:
            gc.enable()
            harness.close()
        assert after == before
