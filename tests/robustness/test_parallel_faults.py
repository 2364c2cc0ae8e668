"""Worker death in parallel campaigns: one lost seed, not one lost campaign.

A worker death loses only that worker's submission.  The pool re-dispatches
each of its seeds alone; only a seed lost a second time — the one that
kills its worker — runs in the parent.
"""

from __future__ import annotations

import multiprocessing
import time

from repro.compilers import make_targets
from repro.core.harness import Harness
from repro.corpus import donor_programs, reference_programs
from repro.perf.parallel import seed_shards
from repro.perf.pool import WorkerPool, reply_value

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


def test_a_death_loses_only_the_dead_workers_submission():
    # Seed 0 kills its worker at once; seed 4 keeps the other worker busy
    # for half a second, so its shard is still in flight when the first dies.
    spec = CrashySpec(kill_seeds=(0,), slow_seeds=(4,))
    with WorkerPool({"campaign": spec}, 2) as pool:
        doomed = pool.submit("campaign", [0, 1, 2, 3])
        survivor = pool.submit("campaign", [4, 5, 6, 7])
        finished: dict = {}
        while len(finished) < 2:
            finished.update(pool.wait())
    survivor_replies, survivor_recovered = finished[survivor]
    doomed_replies, doomed_recovered = finished[doomed]
    assert (doomed_recovered, survivor_recovered) == (True, False)
    survivors = [reply_value(reply) for reply in survivor_replies]
    assert [run.seed for run in survivors] == [4, 5, 6, 7]
    assert {run.program_name for run in survivors} == {"crashy@worker"}
    runs = [reply_value(reply) for reply in doomed_replies] + survivors
    assert [run.seed for run in runs] == SEEDS
    assert _in_parent(runs) == [0]


def test_close_kills_a_busy_worker_instead_of_waiting_for_it():
    before = set(multiprocessing.active_children())
    pool = WorkerPool({"campaign": CrashySpec(slow_seeds=(0,))}, 2)
    pool.submit("campaign", [0])
    started = time.monotonic()
    pool.close()
    assert time.monotonic() - started < 0.5  # the slow seed's own duration
    assert set(multiprocessing.active_children()) <= before
    assert pool.wait() == {}  # nothing pending: returns at once


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
