"""Parallel campaigns must be byte-identical to serial ones."""

from __future__ import annotations

import pickle

import pytest

from repro.baseline import BaselineHarness, source_programs
from repro.compilers import make_target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.core.transformation import sequence_to_json
from repro.corpus import reference_programs
from repro.ir import IntType, ModuleBuilder, VoidType
from repro.perf import CampaignSpec, spec_names_for
from repro.perf.parallel import SHARDS_PER_WORKER, seed_shards


def _finding_identity(finding):
    return (
        finding.seed,
        finding.target_name,
        finding.signature,
        finding.kind,
        finding.optimized_flow,
        sequence_to_json(finding.transformations),
    )


def _small_harness(references, donors):
    return Harness(
        [make_target("SwiftShader"), make_target("spirv-opt")],
        references,
        donors,
        FuzzerOptions(max_transformations=40),
    )


class TestParallelCampaign:
    def test_two_workers_match_serial(self, references, donors):
        seeds = range(8)
        serial = _small_harness(references, donors).run_campaign(seeds)
        # degrade=False: this test exists to exercise the sharded path, which
        # auto-degrade would (correctly) skip on a single-CPU machine.
        parallel = _small_harness(references, donors).run_campaign(
            seeds, workers=2, degrade=False
        )
        assert [
            (r.program_name, r.seed, r.transformation_count) for r in serial.seed_runs
        ] == [
            (r.program_name, r.seed, r.transformation_count) for r in parallel.seed_runs
        ]
        assert [_finding_identity(f) for f in serial.findings] == [
            _finding_identity(f) for f in parallel.findings
        ]
        assert serial.findings, "workload produced no findings to compare"

    def test_baseline_two_workers_match_serial(self):
        targets = [make_target("SwiftShader"), make_target("spirv-opt")]
        seeds = range(6)
        serial = BaselineHarness(
            targets, source_programs(), rounds=10
        ).run_campaign(seeds)
        parallel = BaselineHarness(
            targets, source_programs(), rounds=10
        ).run_campaign(seeds, workers=2)
        assert [
            (f.seed, f.target_name, f.signature, f.kind) for f in serial.findings
        ] == [
            (f.seed, f.target_name, f.signature, f.kind) for f in parallel.findings
        ]

    def test_degrade_on_one_cpu_skips_the_pool(
        self, references, donors, monkeypatch
    ):
        import os

        import repro.perf.pool as pool_mod

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("degraded campaign must not build a pool")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(pool_mod, "WorkerProcess", boom)
        seeds = range(4)
        serial = _small_harness(references, donors).run_campaign(seeds)
        harness = _small_harness(references, donors)
        degraded = harness.run_campaign(seeds, workers=4)
        assert harness.metrics.counter("parallel.degraded") == 1
        assert [_finding_identity(f) for f in degraded.findings] == [
            _finding_identity(f) for f in serial.findings
        ]

    def test_degrade_on_tiny_seed_count(self, references, donors, monkeypatch):
        import repro.perf.pool as pool_mod

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("degraded campaign must not build a pool")

        monkeypatch.setattr(pool_mod, "WorkerProcess", boom)
        harness = _small_harness(references, donors)
        result = harness.run_campaign(range(1), workers=4)
        assert harness.metrics.counter("parallel.degraded") == 1
        assert len(result.seed_runs) == 1

    def test_workers_one_never_builds_a_pool(self, references, donors, monkeypatch):
        import repro.perf.pool as pool_mod

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("workers=1 must stay on the serial path")

        monkeypatch.setattr(pool_mod, "WorkerProcess", boom)
        result = _small_harness(references, donors).run_campaign(range(2), workers=1)
        assert len(result.seed_runs) == 2


class TestCampaignSpec:
    def test_spec_round_trips_through_pickle_and_rebuilds(self, references, donors):
        harness = _small_harness(references, donors)
        spec = pickle.loads(pickle.dumps(harness.campaign_spec()))
        rebuilt = spec.build()
        assert [t.name for t in rebuilt.targets] == ["SwiftShader", "spirv-opt"]
        assert [p.name for p in rebuilt.references] == [p.name for p in references]
        assert rebuilt.options == harness.options
        original = harness.run_seed(0)
        clone = rebuilt.run_seed(0)
        assert (original.program_name, original.transformation_count) == (
            clone.program_name,
            clone.transformation_count,
        )

    def test_custom_corpus_is_rejected_with_clear_error(self):
        builder = ModuleBuilder()
        out = builder.output("out", IntType())
        function = builder.function("main", VoidType())
        block = function.block()
        block.store(out, builder.int_const(1))
        block.ret()
        builder.entry_point(function.result_id)
        from repro.corpus.generator import CorpusProgram

        rogue = CorpusProgram("not_in_corpus", builder.build(), {})
        with pytest.raises(ValueError, match="non-standard corpus"):
            spec_names_for([rogue], reference_programs)

    def test_sharding_preserves_order_and_covers_all_seeds(self):
        seeds = list(range(17))
        shards = seed_shards(seeds, 3)
        assert [s for shard in shards for s in shard] == seeds
        assert len(shards) == 3 * SHARDS_PER_WORKER
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    def test_unknown_spec_kind_raises(self):
        with pytest.raises(ValueError, match="unknown campaign spec kind"):
            CampaignSpec(kind="bogus", target_names=("SwiftShader",)).build()
