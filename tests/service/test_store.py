"""CampaignStore: durable state machine, torn/corrupt meta, atomic results."""

from __future__ import annotations

import json

import pytest

from repro.core.fuzzer import FuzzerOptions
from repro.perf.parallel import CampaignSpec
from repro.robustness import RobustnessConfig
from repro.service import (
    CampaignManifest,
    CampaignStore,
    StoreError,
    spec_from_json,
    spec_to_json,
)
from repro.service import state as st


def _spec() -> CampaignSpec:
    return CampaignSpec(
        kind="core",
        target_names=("SwiftShader",),
        reference_names=("arith_mix_0",),
        donor_names=("donor_math_0",),
        options=FuzzerOptions(max_transformations=40),
        robustness=RobustnessConfig(retries=1, quarantine_after=3),
    )


def _manifest(campaign_id="c1", **kw) -> CampaignManifest:
    defaults = dict(
        campaign_id=campaign_id,
        spec=_spec(),
        seeds=(0, 1, 2),
        tenant="alice",
        reduce=1,
        reduce_passes=("type-batch", "ddmin"),
        max_seconds=30.0,
        max_probes=1000,
    )
    defaults.update(kw)
    return CampaignManifest(**defaults)


def test_spec_round_trips_through_json():
    spec = _spec()
    rebuilt = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert rebuilt == spec


def test_submit_records_manifest_and_queued_state(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    assert store.state("c1") == st.QUEUED
    manifest = store.manifest("c1")
    assert manifest.seeds == (0, 1, 2)
    assert manifest.tenant == "alice"
    assert manifest.reduce == 1
    assert manifest.reduce_passes == ("type-batch", "ddmin")
    assert manifest.max_seconds == 30.0
    assert manifest.spec == _spec()
    assert store.check("c1") == []


def test_duplicate_submit_raises(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    with pytest.raises(StoreError):
        store.submit(_manifest())


def test_submit_replaces_only_a_meta_without_verified_records(tmp_path):
    store = CampaignStore(tmp_path)
    store.campaign_dir("c1").mkdir(parents=True)
    store.meta_path("c1").write_bytes(b'{"v": 1, "type": "submit", "camp')
    assert not store.exists("c1")
    store.submit(_manifest())
    assert [r["type"] for r in store.history("c1")] == ["submit", "state"]
    assert store.check("c1") == []
    # A meta holding any verified record is a campaign, corrupt or not.
    store.transition("c1", st.RUNNING)
    lines = store.meta_path("c1").read_bytes().splitlines(keepends=True)
    store.meta_path("c1").write_bytes(b"bit rot\n" + b"".join(lines[1:]))
    with pytest.raises(StoreError):
        store.submit(_manifest())
    assert store.meta_path("c1").read_bytes().startswith(b"bit rot\n")


def test_transitions_follow_the_whitelist(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    store.transition("c1", st.REDUCING)
    with pytest.raises(StoreError):
        store.transition("c1", st.QUEUED)  # no backwards edges
    store.transition("c1", st.FAILED, reason="poisoned-batch", batch=2)
    with pytest.raises(StoreError):
        store.transition("c1", st.DONE)  # terminal states are final
    last = store.history("c1")[-1]
    assert last["state"] == st.FAILED
    assert last["reason"] == "poisoned-batch"
    assert last["batch"] == 2


def test_same_state_transition_is_idempotent(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    before = store.meta_path("c1").read_bytes()
    store.transition("c1", st.RUNNING)  # recovery re-entering a phase
    assert store.meta_path("c1").read_bytes() == before


def test_torn_meta_tail_is_tolerated_and_repaired(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    with store.meta_path("c1").open("ab") as handle:
        handle.write(b'{"type": "state", "state": "RUN')  # killed mid-write
    assert store.state("c1") == st.QUEUED  # prefix only
    assert store.check("c1") == []  # a torn tail is expected, not corruption
    store.transition("c1", st.RUNNING)  # append repairs onto a fresh line
    assert store.state("c1") == st.RUNNING
    assert store.check("c1") == []


def test_interior_meta_corruption_is_reported_loudly(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    path = store.meta_path("c1")
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"garbage not json\n"  # the QUEUED record, mid-file
    path.write_bytes(b"".join(lines))
    violations = store.check("c1")
    assert any("interior meta corruption" in v for v in violations)
    # The loaded history is the consistent prefix before the corruption.
    assert store.state("c1") is None
    assert [r["type"] for r in store.history("c1")] == ["submit"]


def test_crc_catches_interior_byte_flip_that_still_parses(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    path = store.meta_path("c1")
    lines = path.read_bytes().splitlines(keepends=True)
    flipped = lines[1].replace(b'"QUEUED"', b'"XUEUED"')
    assert flipped != lines[1]
    lines[1] = flipped
    path.write_bytes(b"".join(lines))
    assert any("interior" in v for v in store.check("c1"))


def test_done_without_result_is_a_violation(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    store.transition("c1", st.REDUCING)
    store.transition("c1", st.DONE)
    assert any("no valid result.json" in v for v in store.check("c1"))
    store.write_result("c1", {"campaign": "c1", "findings": []})
    assert store.check("c1") == []
    assert store.read_result("c1")["campaign"] == "c1"


def test_result_write_is_atomic_and_stable(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    payload = {"campaign": "c1", "findings": [{"seed": 1}]}
    store.write_result("c1", payload)
    first = store.result_path("c1").read_bytes()
    store.write_result("c1", payload)  # idempotent finalize replay
    assert store.result_path("c1").read_bytes() == first
    assert not (store.campaign_dir("c1") / "result.json.tmp").exists()


def test_invalid_campaign_ids_rejected(tmp_path):
    store = CampaignStore(tmp_path)
    for bad in ("", "../escape", ".hidden", "a/b"):
        with pytest.raises(ValueError):
            store.campaign_dir(bad)


def test_degraded_is_reachable_and_terminal(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    store.transition("c1", st.DEGRADED, reason="journal-write-failed")
    assert store.state("c1") == st.DEGRADED
    with pytest.raises(StoreError):
        store.transition("c1", st.DONE)  # terminal, like FAILED
    # DEGRADED needs no result.json: the store failed the campaign, there
    # is nothing trustworthy to publish.
    assert store.check("c1") == []


def test_read_result_raises_on_corrupt_bytes(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.write_result("c1", {"campaign": "c1", "findings": []})
    path = store.result_path("c1")
    path.write_bytes(path.read_bytes()[:-4])  # torn tail breaks the seal
    with pytest.raises(StoreError):
        store.read_result("c1")


def test_compact_meta_folds_history_and_preserves_everything(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    store.transition("c1", st.FAILED, reason="poisoned-batch", batch=2)
    before_manifest = store.manifest("c1")
    assert store.compact_meta("c1")
    records = store.history("c1")
    assert [r["type"] for r in records] == ["submit", "state"]
    snapshot = records[1]
    assert snapshot["state"] == st.FAILED
    assert snapshot["chain"] == [st.QUEUED, st.RUNNING, st.FAILED]
    assert snapshot["reason"] == "poisoned-batch"  # live fields survive
    assert snapshot["batch"] == 2
    assert store.state("c1") == st.FAILED
    assert store.manifest("c1") == before_manifest
    assert store.check("c1") == []
    assert not (store.campaign_dir("c1") / "meta.jsonl.tmp").exists()


def test_compact_meta_is_idempotent_and_composes_with_new_edges(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    assert store.compact_meta("c1")
    first = store.meta_path("c1").read_bytes()
    assert not store.compact_meta("c1")  # single folded record: nothing to do
    assert store.meta_path("c1").read_bytes() == first
    # Life goes on after a snapshot: new edges append and re-fold cleanly.
    store.transition("c1", st.REDUCING)
    store.transition("c1", st.DONE)
    store.write_result("c1", {"campaign": "c1", "findings": []})
    assert store.compact_meta("c1")
    snapshot = store.history("c1")[1]
    assert snapshot["chain"] == [st.QUEUED, st.RUNNING, st.REDUCING, st.DONE]
    assert store.check("c1") == []


def test_auto_compaction_caps_meta_growth(tmp_path):
    store = CampaignStore(tmp_path, compact_meta_bytes=1)  # always over
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    store.transition("c1", st.REDUCING)
    records = store.history("c1")
    assert len(records) == 2  # every transition folds back to two records
    assert records[1]["chain"] == [st.QUEUED, st.RUNNING, st.REDUCING]
    assert store.state("c1") == st.REDUCING
    assert store.check("c1") == []


def test_chain_tail_mismatch_is_a_violation(tmp_path):
    store = CampaignStore(tmp_path)
    store.submit(_manifest())
    store.transition("c1", st.RUNNING)
    assert store.compact_meta("c1")
    path = store.meta_path("c1")
    lines = path.read_bytes().splitlines(keepends=True)
    # Forge the snapshot's state without updating its chain (and reseal so
    # only the semantic check can catch it).
    from repro.robustness.journal import parse_record, seal_record

    record = parse_record(lines[1].decode("utf-8"))
    record["state"] = st.DONE
    lines[1] = seal_record(record)
    path.write_bytes(b"".join(lines))
    assert any("chain tail" in v for v in store.check("c1"))
