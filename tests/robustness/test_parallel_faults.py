"""Worker death in parallel campaigns: one lost seed, not one lost campaign.

After a worker death the pool re-dispatches each lost seed alone; only a
seed lost a second time — the one that kills its worker — runs in the
parent.
"""

from __future__ import annotations

from repro.compilers import make_targets
from repro.core.harness import Harness
from repro.corpus import donor_programs, reference_programs
from repro.perf.parallel import seed_shards
from repro.perf.pool import WorkerPool

from tests.robustness.faults import CrashySpec

SEEDS = list(range(8))


def _shards(kill_seeds, seeds=SEEDS) -> list:
    with WorkerPool({"campaign": CrashySpec(kill_seeds=kill_seeds)}, 2) as pool:
        return list(pool.map("campaign", seed_shards(seeds, pool.workers)))


def _in_parent(runs) -> list:
    return [run.seed for run in runs if run.program_name == "crashy@parent"]


def test_worker_death_fails_only_its_shard():
    results = [run for shard in _shards((3,)) for run in shard]
    assert [run.seed for run in results] == SEEDS
    assert [run.transformation_count for run in results] == SEEDS
    assert _in_parent(results) == [3]


def test_multiple_worker_deaths_still_complete():
    results = [run for shard in _shards((1, 6)) for run in shard]
    assert [run.seed for run in results] == SEEDS
    assert _in_parent(results) == [1, 6]


def test_on_shard_result_sees_every_seed_in_order():
    shards = _shards((2,))
    flattened = [run for shard in shards for run in shard]
    assert [run.seed for run in flattened] == SEEDS
    assert shards == [
        [run for run in flattened if run.seed in shard]
        for shard in seed_shards(SEEDS, 2)
    ]


def test_only_the_killing_seeds_run_in_the_parent():
    seeds = list(range(32))
    results = [run for shard in _shards((5, 20), seeds) for run in shard]
    assert [run.seed for run in results] == seeds
    assert _in_parent(results) == [5, 20]


def test_run_campaign_survives_broken_pool_and_journals(tmp_path):
    journal = tmp_path / "crashy.jsonl"
    harness = Harness(make_targets(), reference_programs(), donor_programs())
    result = harness.run_campaign(
        SEEDS,
        workers=2,
        spec=CrashySpec(kill_seeds=(2,)),
        journal=journal,
        degrade=False,
    )
    assert [run.seed for run in result.seed_runs] == SEEDS
    assert _in_parent(result.seed_runs) == [2]
    assert journal.read_text().count("\n") == len(SEEDS)
