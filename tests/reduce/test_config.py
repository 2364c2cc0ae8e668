"""``ReductionConfig``: the one carrier of a reduction run's fixed knobs.

It rejects combinations that would silently drop a setting, resolves the
run's worker count and fault policy in one place, and ``reduce_finding`` is
``reduce_all`` of one finding — same result, same ``reduce.*`` events.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import reduce_main
from repro.compilers import make_target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.corpus import donor_programs, reference_programs
from repro.perf import default_worker_count
from repro.reduce import DEFAULT_GIVEUP, ReductionConfig
from repro.robustness import ReductionPolicy, RobustnessConfig

from tests.test_cli_reduce_golden import LOG


class TestRejections:
    def test_giveup_needs_passes(self):
        with pytest.raises(ValueError, match="giveup"):
            ReductionConfig(giveup=200)
        assert ReductionConfig(passes=["ddmin"], giveup=200).giveup == 200

    def test_shrink_payloads_is_classic_only(self):
        with pytest.raises(ValueError, match="payload-shrink"):
            ReductionConfig(passes=["ddmin"], shrink_function_payloads=True)
        assert ReductionConfig(shrink_function_payloads=True).passes is None

    def test_one_budget(self):
        with pytest.raises(ValueError, match="two reduction budgets"):
            ReductionConfig(
                max_seconds=5.0, policy=ReductionPolicy(max_seconds=10.0)
            )
        agreed = ReductionConfig(
            max_seconds=5.0, policy=ReductionPolicy(max_seconds=5.0)
        )
        assert agreed.budget == 5.0
        assert ReductionConfig(policy=ReductionPolicy(max_seconds=7.0)).budget == 7.0

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
        assert ReductionConfig().pipeline() is None

    def test_zero_workers_means_one_per_cpu(self):
        assert ReductionConfig().resolve().workers == 1
        resolved = ReductionConfig(workers=0).resolve()
        assert resolved.workers == default_worker_count()

    def test_plain_run_has_no_policy(self):
        resolved = ReductionConfig(max_seconds=3.0).resolve()
        assert resolved.policy is None
        assert resolved.budget == 3.0

    def test_fault_policy_carries_the_budget(self):
        resolved = ReductionConfig(max_seconds=3.0).resolve(journaled=True)
        assert resolved.policy == ReductionPolicy(max_seconds=3.0)

        given = ReductionPolicy(fault_retries=1)
        resolved = ReductionConfig(policy=given, max_seconds=3.0).resolve()
        assert resolved.policy == ReductionPolicy(fault_retries=1, max_seconds=3.0)

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


class TestOneBody:
    @pytest.fixture(scope="class")
    def finding(self):
        program = next(p for p in reference_programs() if p.name == "arith_mix_0")
        harness = Harness(
            [make_target("SwiftShader")],
            [program],
            donor_programs(),
            FuzzerOptions(),
        )
        (finding,) = harness.run_seed(0, program).findings
        return finding

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
            ReductionConfig(workers=2, probe_batch=2),
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
