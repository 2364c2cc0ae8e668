"""Unit tests for the FileOps chaos seam itself (repro.robustness.chaos).

The service-level fault matrix lives in tests/service/test_chaos_io.py;
these tests pin the seam's own contract: positional interception, armed
counting, fired-once semantics, torn/short writes really landing their
prefix, and the directory-fsync errno discipline (the satellite fix for
the store swallowing real EIO/ENOSPC).
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.robustness.chaos import (
    REAL_FILEOPS,
    ChaosFileOps,
    ChaosKill,
    Fault,
    FileOps,
)
from repro.robustness.journal import (
    CampaignJournal,
    ReductionJournal,
    parse_record,
)
from repro.service.store import CampaignManifest, CampaignStore
from tests.service.doubles import WellBehavedSpec


def test_real_fileops_round_trip(tmp_path):
    path = tmp_path / "f.bin"
    ops = FileOps()
    with ops.open(path, "wb") as handle:
        ops.write(handle, b"hello")
        ops.fsync(handle)
    assert path.read_bytes() == b"hello"
    ops.replace(path, tmp_path / "g.bin")
    assert (tmp_path / "g.bin").read_bytes() == b"hello"
    ops.fsync_dir(tmp_path)  # real directory: must not raise
    assert ops.disk_free(tmp_path) > 0


def test_error_fault_hits_exact_positional_call(tmp_path):
    path = tmp_path / "f.bin"
    ops = ChaosFileOps([Fault(op="write", index=1, error=errno.ENOSPC)])
    with ops.open(path, "wb") as handle:
        ops.write(handle, b"first")  # index 0: clean
        with pytest.raises(OSError) as info:
            ops.write(handle, b"second")  # index 1: fault
    assert info.value.errno == errno.ENOSPC
    assert [f.op for f in ops.fired] == ["write"]


def test_fault_fires_once_then_disk_is_healthy_again(tmp_path):
    path = tmp_path / "f.bin"
    ops = ChaosFileOps([Fault(op="fsync", index=0, error=errno.EIO)])
    with ops.open(path, "wb") as handle:
        ops.write(handle, b"x")
        with pytest.raises(OSError):
            ops.fsync(handle)
        ops.fsync(handle)  # the fault is spent; recovery I/O succeeds


def test_short_write_lands_exact_prefix(tmp_path):
    path = tmp_path / "f.bin"
    ops = ChaosFileOps([Fault(op="write", index=0, mode="short", tear_at=3)])
    with ops.open(path, "wb") as handle:
        with pytest.raises(OSError) as info:
            ops.write(handle, b"abcdef")
    assert info.value.errno == errno.ENOSPC
    assert path.read_bytes() == b"abc"  # the torn prefix really landed


def test_kill_write_raises_base_exception_through_os_error_handlers(tmp_path):
    path = tmp_path / "f.bin"
    ops = ChaosFileOps([Fault(op="write", index=0, mode="kill", tear_at=2)])
    with pytest.raises(ChaosKill):
        try:
            with ops.open(path, "wb") as handle:
                ops.write(handle, b"abcdef")
        except OSError:  # a degradation handler must NOT see a kill
            pytest.fail("ChaosKill was caught by an OSError handler")
    assert path.read_bytes() == b"ab"
    assert not issubclass(ChaosKill, Exception)


def test_armed_counting_lines_up_with_enumeration(tmp_path):
    """Setup I/O before arm() is invisible: indices count armed calls only,
    so a counting pass and an injection pass line up call-for-call."""
    path = tmp_path / "j.jsonl"
    ops = ChaosFileOps(armed=False)
    CampaignJournal(path, fileops=ops).append_record({"seed": 0})
    assert ops.ops == [] and ops.counts == {}
    ops.arm()
    CampaignJournal(path, fileops=ops).append_record({"seed": 1})
    armed_ops = [op for op, _ in ops.ops]
    assert armed_ops == ["open", "write", "fsync"]

    # Replay with the same plan, failing the one write we just counted.
    path2 = tmp_path / "j2.jsonl"
    ops2 = ChaosFileOps(
        [Fault(op="write", index=0, error=errno.ENOSPC)], armed=False
    )
    CampaignJournal(path2, fileops=ops2).append_record({"seed": 0})
    ops2.arm()
    with pytest.raises(OSError):
        CampaignJournal(path2, fileops=ops2).append_record({"seed": 1})
    records = CampaignJournal(path2).load_records()
    assert set(records) == {0}  # seed 0's record survived untouched


def test_fake_disk_free(tmp_path):
    assert ChaosFileOps(free_bytes=123).disk_free(tmp_path) == 123
    assert ChaosFileOps().disk_free(tmp_path) == REAL_FILEOPS.disk_free(
        tmp_path
    )


# -- the _fsync_dir satellite: real errors must propagate --------------------


def test_fsync_dir_ignores_unsupported_errnos(tmp_path, monkeypatch):
    def unsupported(fd):
        raise OSError(errno.EINVAL, "fsync unsupported on directories here")

    monkeypatch.setattr(os, "fsync", unsupported)
    FileOps().fsync_dir(tmp_path)  # must not raise


def test_fsync_dir_propagates_real_io_errors(tmp_path, monkeypatch):
    def broken(fd):
        raise OSError(errno.EIO, "I/O error")

    monkeypatch.setattr(os, "fsync", broken)
    with pytest.raises(OSError) as info:
        FileOps().fsync_dir(tmp_path)
    assert info.value.errno == errno.EIO


def test_store_fsync_dir_regression_via_seam(tmp_path):
    """The store's submit-time directory fsync goes through the seam, and a
    real EIO there propagates instead of being swallowed (the pre-chaos
    store ignored every OSError — a silent durability hole)."""
    store = CampaignStore(
        tmp_path / "store",
        fileops=ChaosFileOps(
            [Fault(op="fsync_dir", index=0, error=errno.EIO)], armed=False
        ),
    )
    store.fileops.arm()
    with pytest.raises(OSError) as info:
        store.submit(
            CampaignManifest(
                campaign_id="c1", spec=WellBehavedSpec(), seeds=(0,)
            )
        )
    assert info.value.errno == errno.EIO
    # The half-born campaign directory was cleaned up on the way out.
    assert store.campaign_ids() == []


def test_torn_tail_repair_truncate_goes_through_the_seam(tmp_path):
    """Torn-tail repair is a seam call like any other: an ``error`` fault on
    the repair truncate of a torn reduction journal propagates as OSError,
    and nothing is appended after the torn bytes."""
    path = tmp_path / "reduce.jsonl"
    journal = ReductionJournal(path)
    journal.prepare("seq-key", 4, resume=False)
    journal.append({"v": 1, "key": "k0", "n": 3, "verdict": True})
    journal.append({"v": 1, "key": "k1", "n": 2, "verdict": False})
    pristine = path.read_bytes()
    torn = pristine[:-7]  # a SIGKILL mid-write of k1's record
    path.write_bytes(torn)

    ops = ChaosFileOps([Fault(op="truncate", index=0, error=errno.EIO)])
    resumed = ReductionJournal(path, fileops=ops)
    assert set(resumed.prepare("seq-key", 4, resume=True)) == {"k0"}
    with pytest.raises(OSError) as info:
        resumed.append({"v": 1, "key": "k1", "n": 2, "verdict": False})
    assert info.value.errno == errno.EIO
    assert [f.op for f in ops.fired] == ["truncate"]
    assert path.read_bytes() == torn

    # The fault is spent: the next append repairs the tail in place and
    # the journal catches up byte-identically.
    resumed.append({"v": 1, "key": "k1", "n": 2, "verdict": False})
    assert ops.counts["truncate"] == 2
    assert path.read_bytes() == pristine
