"""The I/O fault matrix over the finalize phase's reduction journals.

Scenario: the two tenants of :mod:`tests.service.test_chaos_io`, except
that ``alpha`` asks for one reduction (``reduce=1``) and owns a finding to
reduce.  The reduction journal writes through the store's
:class:`~repro.robustness.chaos.FileOps`, so every armed open, write and
fsync of ``reduce-0.jsonl`` is a fault point.  A counting pass enumerates
them; then, for a stride-sampled subset (``SERVICE_CHAOS_IO_STRIDE``; CI
runs stride 1 = every point):

* **error mode** — that one call raises ENOSPC/EIO (a write lands a short
  prefix first): ``alpha`` either degrades (an opening failure) or is done
  with its reduction marked degraded, and ``beta`` reaches ``DONE`` with
  byte-identical result bytes;
* **kill mode** — that one call tears its write at a seeded offset and the
  process "dies": a fresh service over the same store recovers to exactly
  the baseline store, reduction journal included.
"""

from __future__ import annotations

import errno
import json
import random
from pathlib import Path

import pytest

from repro.robustness.chaos import ChaosFileOps, ChaosKill
from repro.service import (
    CampaignManifest,
    CampaignService,
    CampaignStore,
)
from repro.service import state as st
from tests.service.test_chaos_io import CONFIG, SEEDS, SPEC, _fault_for, _stride

CAMPAIGNS = (
    CampaignManifest("alpha", SPEC, SEEDS, tenant="alice", reduce=1),
    CampaignManifest("beta", SPEC, SEEDS, tenant="bob"),
)
REDUCE_JOURNAL = "reduce-0.jsonl"


def _run_scenario(root: Path, fileops: ChaosFileOps) -> CampaignStore:
    store = CampaignStore(root, fileops=fileops)
    service = CampaignService(store, CONFIG)
    for manifest in CAMPAIGNS:
        assert service.submit(manifest) is None
    service.fleet.start()
    fileops.arm()
    try:
        service.run_until_idle(max_seconds=120.0)
    finally:
        service.shutdown()
    return store


def _snapshot(store: CampaignStore) -> dict:
    return {
        manifest.campaign_id: {
            "state": store.state(manifest.campaign_id),
            "result_bytes": store.result_path(manifest.campaign_id).read_bytes(),
            "journal": store.journal(manifest.campaign_id).load_records(),
        }
        for manifest in CAMPAIGNS
    }


def _reduce_journal(store: CampaignStore) -> bytes:
    return store.reduce_journal_path("alpha", 0).read_bytes()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One healthy counting pass: (reduction-journal fault positions, every
    armed op, snapshot, reduction journal bytes)."""
    root = tmp_path_factory.mktemp("baseline")
    ops = ChaosFileOps(armed=False)
    store = _run_scenario(root, ops)
    assert store.check_all() == []
    result = json.loads(store.result_path("alpha").read_text())
    assert len(result["reductions"]) == 1, "alpha needs a finding to reduce"
    assert result["reductions"][0]["degraded"] is None
    positions = [
        position
        for position, (op, path) in enumerate(ops.ops)
        if Path(path).name == REDUCE_JOURNAL
    ]
    kinds = {ops.ops[position][0] for position in positions}
    assert kinds == {"open", "write", "fsync"}, kinds
    return positions, ops.ops, _snapshot(store), _reduce_journal(store)


def test_reduction_journal_writes_through_the_store_seam(baseline):
    positions, ops, _snap, journal = baseline
    # One open for the whole run, one write per line, and far fewer
    # fsyncs than decisions (one per pass end).
    kinds = [ops[position][0] for position in positions]
    assert kinds.count("open") == 1
    assert kinds.count("write") == len(journal.splitlines())
    assert 1 <= kinds.count("fsync") <= 2 < kinds.count("write")


def test_error_matrix_only_the_owning_campaign_is_affected(tmp_path, baseline):
    positions, baseline_ops, snapshot, _journal = baseline
    errno_for = {"open": errno.ENOSPC, "write": errno.ENOSPC, "fsync": errno.EIO}
    for position in positions[:: _stride()]:
        op, _path = baseline_ops[position]
        mode = "short" if op == "write" else "error"
        fault = _fault_for(
            baseline_ops,
            position,
            mode=mode,
            error=errno_for[op],
            tear_at=5 if mode == "short" else None,
        )
        ops = ChaosFileOps([fault], armed=False)
        store = _run_scenario(tmp_path / f"err-{position}", ops)
        assert ops.fired, f"fault at point {position} ({op}) never fired"

        state = store.state("alpha")
        if state == st.DEGRADED:
            # The journal could not be opened or given its header.
            assert store.history("alpha")[-1].get("reason") == "finalize-io-error"
        else:
            assert state == st.DONE, f"point {position}: {op} -> {state}"
            result = json.loads(store.result_path("alpha").read_text())
            degraded = result["reductions"][0]["degraded"]
            assert degraded == "oracle-error: OSError", (position, op, degraded)
        assert store.state("beta") == st.DONE
        assert (
            store.result_path("beta").read_bytes()
            == snapshot["beta"]["result_bytes"]
        )
        assert store.journal("beta").load_records() == snapshot["beta"]["journal"]
        assert store.check_all() == [], store.check_all()


def test_kill_matrix_recovers_the_baseline_store(tmp_path, baseline):
    positions, baseline_ops, snapshot, journal = baseline
    stride = _stride()
    for position in positions[stride // 2 :: stride]:
        op, _path = baseline_ops[position]
        rng = random.Random(0xC0FFEE ^ position)
        fault = _fault_for(
            baseline_ops,
            position,
            mode="kill",
            tear_at=rng.randrange(0, 64) if op == "write" else None,
        )
        root = tmp_path / f"kill-{position}"
        ops = ChaosFileOps([fault], armed=False)
        with pytest.raises(ChaosKill):
            _run_scenario(root, ops)

        # "Reboot": a fresh service over the same store, healthy disk.
        store = CampaignStore(root)
        service = CampaignService(store, CONFIG)
        service.start()
        try:
            service.run_until_idle(max_seconds=120.0)
        finally:
            service.shutdown()
        assert store.check_all() == [], store.check_all()
        assert _snapshot(store) == snapshot, f"point {position} ({op})"
        assert _reduce_journal(store) == journal, f"point {position} ({op})"
