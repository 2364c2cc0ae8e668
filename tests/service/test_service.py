"""CampaignService end to end: multiplexing, fault recovery, budgets, drain."""

from __future__ import annotations

import pytest

from repro.core.fuzzer import FuzzerOptions
from repro.core.transformation import sequence_to_json
from repro.observability import read_trace
from repro.perf.parallel import CampaignSpec
from repro.robustness import RobustnessConfig
from repro.service import (
    CampaignManifest,
    CampaignService,
    CampaignStore,
    ServiceConfig,
)
from repro.service import state as st

from tests.service.doubles import (
    AlwaysCrashSpec,
    CrashOnceSpec,
    FaultySeedSpec,
    HangOnceSpec,
    SlowSpec,
    WellBehavedSpec,
)

REAL_SPEC = CampaignSpec(
    kind="core",
    target_names=("SwiftShader", "NVIDIA"),
    reference_names=("arith_mix_0", "loop_sum_5"),
    donor_names=("donor_math_0",),
    options=FuzzerOptions(max_transformations=40),
)


def _service(tmp_path, *, trace=False, **config):
    store = CampaignStore(tmp_path / "store")
    defaults = dict(workers=1, batch_size=2, poll_interval=0.02)
    defaults.update(config)
    service = CampaignService(
        store,
        ServiceConfig(**defaults),
        tracer=(tmp_path / "service-trace.jsonl") if trace else None,
    )
    return service


def _events(tmp_path, name):
    return [
        e for e in read_trace(tmp_path / "service-trace.jsonl") if e["ev"] == name
    ]


def test_two_tenants_multiplex_and_match_direct_run(tmp_path):
    service = _service(tmp_path, workers=2)
    service.start()
    try:
        assert (
            service.submit(
                CampaignManifest(
                    "c1", REAL_SPEC, tuple(range(4)), tenant="alice", reduce=1
                )
            )
            is None
        )
        assert (
            service.submit(
                CampaignManifest("c2", REAL_SPEC, tuple(range(4, 8)), tenant="bob")
            )
            is None
        )
        service.run_until_idle(max_seconds=120)
    finally:
        service.shutdown()
    store = service.store
    assert store.state("c1") == st.DONE
    assert store.state("c2") == st.DONE
    assert store.check_all() == []

    harness = REAL_SPEC.build()
    try:
        direct = harness.run_campaign(range(4))
    finally:
        harness.close()
    served = store.read_result("c1")["findings"]
    assert [
        (f["seed"], f["target"], f["signature"], f["kind"], f["transformations"])
        for f in served
    ] == [
        (
            f.seed,
            f.target_name,
            f.signature,
            f.kind,
            sequence_to_json(f.transformations),
        )
        for f in direct.findings
    ]
    reductions = store.read_result("c1")["reductions"]
    assert len(reductions) == 1
    assert reductions[0]["reduced_length"] <= reductions[0]["initial_length"]


def test_backpressure_rejects_explicitly_and_owns_no_disk(tmp_path):
    service = _service(tmp_path, max_queued=1)
    try:
        assert service.submit(CampaignManifest("c1", WellBehavedSpec(), (0,))) is None
        rejection = service.submit(CampaignManifest("c2", WellBehavedSpec(), (1,)))
        assert rejection is not None and rejection.reason == "queue-full"
        assert not service.store.exists("c2")
        duplicate = service.submit(CampaignManifest("c1", WellBehavedSpec(), (2,)))
        assert duplicate is not None
        assert duplicate.reason == "duplicate-campaign-id"
    finally:
        service.shutdown()


def test_resubmit_replaces_a_torn_submit_left_by_a_crash(tmp_path):
    """A crash mid-submit used to leave a meta holding only a torn submit
    line: recovery flagged it and a resubmit was refused as a duplicate.
    Submit now writes atomically and replaces such a leftover."""
    manifest = CampaignManifest("c1", WellBehavedSpec(), (0, 1))
    pristine = CampaignStore(tmp_path / "pristine")
    pristine.submit(manifest)
    submit_line = pristine.meta_path("c1").read_bytes().split(b"\n")[0]
    service = _service(tmp_path)
    store = service.store
    store.campaign_dir("c1").mkdir(parents=True)
    store.meta_path("c1").write_bytes(submit_line[: len(submit_line) // 2])
    assert not store.exists("c1")
    assert store.check_all() == ["c1: meta does not start with submit"]
    service.start()
    try:
        assert service.healthz()["broken_campaigns"] == ["c1"]
        assert service.submit(manifest) is None
        assert "broken_campaigns" not in service.healthz()
        service.run_until_idle(max_seconds=60)
    finally:
        service.shutdown()
    assert store.state("c1") == st.DONE
    assert store.check_all() == []


def test_worker_crash_requeues_exactly_once(tmp_path):
    spec = CrashOnceSpec(marker=str(tmp_path / "crashed"), crash_seed=2)
    service = _service(tmp_path, trace=True)
    service.start()
    try:
        service.submit(CampaignManifest("c1", spec, tuple(range(4))))
        service.run_until_idle(max_seconds=60)
    finally:
        service.shutdown()
    store = service.store
    assert store.state("c1") == st.DONE
    records = store.journal("c1").load_records()
    assert sorted(records) == [0, 1, 2, 3]
    # Every record is the pure function of its seed, crash or no crash.
    for seed, record in records.items():
        assert record["transformation_count"] == seed * 3 + 1
    assert len(_events(tmp_path, "service.requeue")) == 1
    assert len(_events(tmp_path, "service.worker_dead")) == 1
    assert _events(tmp_path, "service.finalized")[0]["requeues"] == 1


def test_hung_worker_lease_expires_and_batch_requeues(tmp_path):
    spec = HangOnceSpec(marker=str(tmp_path / "hung"), hang_seed=1, sleep=30.0)
    service = _service(tmp_path, trace=True, lease_ttl=0.4)
    service.start()
    try:
        service.submit(CampaignManifest("c1", spec, tuple(range(4))))
        service.run_until_idle(max_seconds=60)
    finally:
        service.shutdown()
    store = service.store
    assert store.state("c1") == st.DONE
    assert sorted(store.journal("c1").load_records()) == [0, 1, 2, 3]
    expired = _events(tmp_path, "service.lease_expired")
    assert len(expired) == 1 and expired[0]["attempt"] == 1


def test_poisoned_batch_fails_with_structured_reason(tmp_path):
    service = _service(tmp_path, fault_budget=10)
    service.start()
    try:
        service.submit(CampaignManifest("c1", AlwaysCrashSpec(crash_seed=1), (0, 1)))
        service.run_until_idle(max_seconds=60)
    finally:
        service.shutdown()
    store = service.store
    assert store.state("c1") == st.FAILED
    last = store.history("c1")[-1]
    assert last["reason"] == "poisoned-batch"
    assert last["batch"] == 0
    assert store.check_all() == []


def test_fault_budget_exhaustion_fails_the_campaign(tmp_path):
    service = _service(tmp_path, fault_budget=1)
    service.start()
    try:
        service.submit(CampaignManifest("c1", AlwaysCrashSpec(crash_seed=0), (0, 1)))
        service.run_until_idle(max_seconds=60)
    finally:
        service.shutdown()
    last = service.store.history("c1")[-1]
    assert last["state"] == st.FAILED
    assert last["reason"] == "fault-budget-exhausted"
    assert last["budget"] == 1


def test_time_budget_exhaustion(tmp_path):
    service = _service(tmp_path)
    service.start()
    try:
        service.submit(
            CampaignManifest(
                "c1", SlowSpec(delay=0.2), tuple(range(50)), max_seconds=0.3
            )
        )
        service.run_until_idle(max_seconds=60)
    finally:
        service.shutdown()
    last = service.store.history("c1")[-1]
    assert last["reason"] == "time-budget-exhausted"


def test_probe_budget_exhaustion(tmp_path):
    service = _service(tmp_path)
    service.start()
    try:
        # 3 probes per seed; the first 2-seed batch alone exceeds 5.
        service.submit(
            CampaignManifest("c1", WellBehavedSpec(), tuple(range(8)), max_probes=5)
        )
        service.run_until_idle(max_seconds=60)
    finally:
        service.shutdown()
    last = service.store.history("c1")[-1]
    assert last["reason"] == "probe-budget-exhausted"
    assert last["probes"] > 5


def test_posthoc_fault_budget_quarantines_without_touching_records(tmp_path):
    spec = FaultySeedSpec(robustness=RobustnessConfig(quarantine_after=2))
    service = _service(tmp_path)
    service.start()
    try:
        service.submit(CampaignManifest("c1", spec, tuple(range(5))))
        service.run_until_idle(max_seconds=60)
    finally:
        service.shutdown()
    store = service.store
    assert store.state("c1") == st.QUARANTINED
    result = store.read_result("c1")
    assert "Faulty" in result["quarantined"]
    # Quarantine is evaluated post hoc: every seed still ran and journaled.
    assert sorted(store.journal("c1").load_records()) == [0, 1, 2, 3, 4]
    assert store.check_all() == []


def test_drain_finishes_leased_work_and_stops_granting(tmp_path):
    service = _service(tmp_path, trace=True)
    service.start()
    try:
        service.submit(CampaignManifest("c1", SlowSpec(delay=0.1), tuple(range(6))))
        # Step until the first batch is leased, then drain.
        deadline = 200
        while not service.leases.active() and deadline:
            service.step()
            deadline -= 1
        assert service.leases.active()
        assert service.drain(max_seconds=30)
    finally:
        service.shutdown()
    store = service.store
    journaled = sorted(store.journal("c1").load_records())
    assert journaled == [0, 1]  # the leased batch completed...
    assert store.state("c1") == st.RUNNING  # ...and the rest stayed durable
    assert store.check_all() == []
    rejection = service.submit(CampaignManifest("c9", WellBehavedSpec(), (0,)))
    assert rejection is not None and rejection.reason == "draining"


def test_recovery_resumes_a_running_campaign_identically(tmp_path):
    spec = REAL_SPEC
    first = _service(tmp_path, workers=1, batch_size=2)
    first.start()
    first.submit(CampaignManifest("c1", spec, tuple(range(6))))
    try:
        for _ in range(500):
            first.step()
            if len(first.store.journal("c1").load_records()) >= 2:
                break
        else:
            pytest.fail("no seeds journaled in time")
    finally:
        first.shutdown()  # hard stop: no drain, no finalize
    assert first.store.state("c1") in (st.QUEUED, st.RUNNING)

    second = _service(tmp_path, workers=1, batch_size=2)
    second.start()
    try:
        assert second._recovered == ["c1"]
        second.run_until_idle(max_seconds=120)
    finally:
        second.shutdown()
    store = second.store
    assert store.state("c1") == st.DONE
    assert store.check_all() == []

    harness = spec.build()
    try:
        direct = harness.run_campaign(range(6))
    finally:
        harness.close()
    served = store.read_result("c1")["findings"]
    assert [(f["seed"], f["target"], f["signature"]) for f in served] == [
        (f.seed, f.target_name, f.signature) for f in direct.findings
    ]


def test_recovery_reports_corrupt_campaigns_loudly(tmp_path):
    service = _service(tmp_path)
    service.submit(CampaignManifest("c1", REAL_SPEC, (0, 1)))
    meta = service.store.meta_path("c1")
    lines = meta.read_bytes().splitlines(keepends=True)
    lines[0] = b"garbage\n"  # interior corruption (submit record)
    meta.write_bytes(b"".join(lines))

    fresh = CampaignService(
        CampaignStore(tmp_path / "store"), ServiceConfig(workers=1)
    )
    try:
        assert fresh.recover() == []
        status = fresh.status("c1")
        assert status["violations"]
        listing = fresh.list_campaigns()
        assert listing[0]["violations"]
    finally:
        fresh.shutdown()


def test_healthz_and_findings_queries(tmp_path):
    service = _service(tmp_path)
    service.start()
    try:
        health = service.healthz()
        assert health["ok"] and not health["draining"]
        service.submit(CampaignManifest("c1", REAL_SPEC, (0, 1)))
        service.run_until_idle(max_seconds=60)
        found = service.findings("c1")
        assert found and all("signature" in f for f in found)
        report = service.report("c1")
        assert report["seeds"] == 2
        assert report["findings"] == len(found)
        assert service.findings("nope") is None
        assert service.status("nope") is None
    finally:
        service.shutdown()
