"""SIGTERM drain for supervised workers + decorrelated retry jitter."""

from __future__ import annotations

import time

from repro.robustness import (
    DecorrelatedJitter,
    ReductionPolicy,
    RobustnessConfig,
    SupervisedTarget,
    backoff_sleep,
)
from repro.robustness.reduction import FlakeHardenedOracle

from tests.robustness.faults import FaultyTarget


def test_supervised_worker_drains_cleanly_on_sigterm(straightline_module):
    target = SupervisedTarget(
        FaultyTarget(mode="ok"), RobustnessConfig(supervise=True)
    )
    outcome = target.run(straightline_module, {})
    assert outcome.kind.value == "ok"
    worker = target._worker
    assert worker is not None and worker.process.is_alive()
    assert target.drain() is True  # SIGTERM -> handler flushes and exits 0
    assert target._worker is None
    assert target.drain() is True  # idempotent when no worker is up


def test_drain_reports_unclean_exit_for_stubborn_worker(straightline_module):
    target = SupervisedTarget(
        FaultyTarget(mode="ok"), RobustnessConfig(supervise=True)
    )
    target.run(straightline_module, {})
    process = target._worker.process
    # Simulate a worker that dies hard before the drain: kill -9 it first.
    process.kill()
    process.join(timeout=5.0)
    assert target.drain() is False  # exitcode != 0 is an unclean drain
    assert target._worker is None


def test_fleet_worker_drains_cleanly_on_sigterm():
    from repro.service.fleet import WorkerFleet
    from tests.service.doubles import WellBehavedSpec

    fleet = WorkerFleet(1)
    fleet.start()
    try:
        (worker_id,) = fleet.idle_workers()
        assert fleet.send_batch(worker_id, "c", 0, WellBehavedSpec(), (1,))
        replies = fleet.poll(5.0) + fleet.poll(5.0)  # "seed", then "done"
        assert [e[2][0] for e in replies] == ["seed", "done"]  # worker is up
        fleet._workers[worker_id].process.terminate()
        events = fleet.poll(5.0)
    finally:
        fleet.stop()
    assert events == [("dead", worker_id, 0)]  # the drain path, not a crash
    assert fleet.alive_count() == 0


def test_backoff_sleep_uses_jitter_when_given(monkeypatch):
    slept: list[float] = []
    monkeypatch.setattr(time, "sleep", slept.append)
    jitter = DecorrelatedJitter(0.05, cap=0.4, seed=3)
    expected = DecorrelatedJitter(0.05, cap=0.4, seed=3)
    for attempt in range(1, 5):
        backoff_sleep(attempt, 0.05, jitter=jitter)
    assert slept == [expected.next() for _ in range(4)]
    # Without jitter the deterministic exponential schedule is unchanged.
    slept.clear()
    for attempt in range(1, 4):
        backoff_sleep(attempt, 0.05)
    assert slept == [0.05, 0.1, 0.2]


def test_zero_backoff_never_sleeps(monkeypatch):
    slept: list[float] = []
    monkeypatch.setattr(time, "sleep", slept.append)
    backoff_sleep(3, 0.0, jitter=DecorrelatedJitter(0.0))
    backoff_sleep(0, 0.5)
    assert slept == []


def test_oracle_wires_jitter_from_policy():
    policy = ReductionPolicy(retry_jitter_seed=11)
    oracle = FlakeHardenedOracle(lambda candidate: True, policy)
    assert isinstance(oracle._jitter, DecorrelatedJitter)
    plain = FlakeHardenedOracle(lambda candidate: True, ReductionPolicy())
    assert plain._jitter is None


def test_policy_inherits_jitter_seed_from_robustness_config():
    config = RobustnessConfig(retry_backoff=0.02, retry_jitter_seed=9)
    policy = ReductionPolicy.from_robustness(config)
    assert policy.retry_jitter_seed == 9
    assert policy.retry_backoff == 0.02
