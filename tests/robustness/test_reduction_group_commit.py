"""Reduction journals group-commit their decisions.

A journaled reduction holds one append handle for the whole run: every
decision record is flushed to the OS as it is made (so a ``SIGKILL`` loses
none) and the journal is fsync'd once per pass end and once when the run
ends — never once per decision.  The handle is closed on every path out of
the run.  A healthy :class:`ChaosFileOps` records each call, which is what
these tests count.
"""

from __future__ import annotations

import pytest

from repro.reduce import PipelineContext, ReductionConfig
from repro.robustness import ProbeVerdict, ReductionJournal, ReductionPolicy
from repro.robustness.chaos import ChaosFileOps, ChaosKill, Fault

SEQUENCE = list(range(40))
NEEDLES = {3, 17, 29}

#: No sleeps, deterministic voting.
POLICY = ReductionPolicy(retry_backoff=0.0)


def verdict(candidate) -> bool:
    return NEEDLES.issubset(candidate)


class HandleKeepingOps(ChaosFileOps):
    """A :class:`ChaosFileOps` that also keeps every handle it opens."""

    def __init__(self, faults=()) -> None:
        super().__init__(faults)
        self.handles: list = []

    def open(self, path, mode):
        handle = super().open(path, mode)
        self.handles.append(handle)
        return handle


class DropOnePass:
    """A greedy sequence pass: try removing each element in turn."""

    name = "drop-one"
    stage = "sequence"

    def run(self, run) -> None:
        index = 0
        while index < len(run.current):
            keep = [i for i in range(len(run.current)) if i != index]
            if not run.propose_subset(keep):
                index += 1


def _reduce(path, ops, *, test=verdict, passes=("ddmin",), resume=False, **config):
    config.setdefault("policy", POLICY)
    config = ReductionConfig(passes=passes, **config)
    ctx = PipelineContext(
        verdict_test=test,
        config=config,
        journal=ReductionJournal(path, fileops=ops),
        resume=resume,
    )
    return config.pipeline().run(SEQUENCE, ctx)


def _fsyncs(ops: ChaosFileOps, path) -> int:
    return sum(1 for op, where in ops.ops if op == "fsync" and where == str(path))


def _decisions(path) -> int:
    return sum(1 for line in path.read_text().splitlines() if '"verdict"' in line)


@pytest.mark.parametrize("workers", [1, 2])
def test_ddmin_fsyncs_once_per_pass_not_once_per_decision(tmp_path, workers):
    path = tmp_path / "reduce.jsonl"
    ops = HandleKeepingOps()
    result = _reduce(path, ops, workers=workers)

    assert sorted(result.transformations) == sorted(NEEDLES)
    assert result.degraded is None
    assert _decisions(path) >= 30
    assert 1 <= _fsyncs(ops, path) <= 1 + 1  # one pass, plus the run end
    assert [op for op, _ in ops.ops].count("open") == 1
    assert all(handle.closed for handle in ops.handles)

    # The bytes are the per-decision journal's: a plain run writes them too.
    reference = tmp_path / "reference.jsonl"
    _reduce(reference, None)
    assert path.read_bytes() == reference.read_bytes()


def test_multi_pass_pipeline_fsyncs_once_per_pass(tmp_path):
    path = tmp_path / "reduce.jsonl"
    ops = HandleKeepingOps()
    result = _reduce(path, ops, passes=(DropOnePass(), "ddmin"))

    runs = sum(stats.runs for stats in result.pass_stats)
    assert runs >= 2
    # Every invocation here journals fresh decisions, so each pass end has
    # something to sync and the run end has nothing left.
    assert _fsyncs(ops, path) == runs
    assert all(handle.closed for handle in ops.handles)


def test_handle_closed_after_budget_degrade(tmp_path):
    path = tmp_path / "reduce.jsonl"
    ops = HandleKeepingOps()
    result = _reduce(path, ops, max_seconds=0)

    assert result.degraded == "budget-exhausted"
    assert _fsyncs(ops, path) <= 1 + 1
    assert all(handle.closed for handle in ops.handles)


def test_handle_closed_after_reduction_aborted(tmp_path):
    calls = []

    def flaky(candidate):
        calls.append(1)
        if len(calls) > 6:
            return ProbeVerdict(False, fault="timeout")
        return ProbeVerdict(verdict(candidate))

    path = tmp_path / "reduce.jsonl"
    ops = HandleKeepingOps()
    policy = ReductionPolicy(retry_backoff=0.0, unresponsive_after=3)
    result = _reduce(path, ops, test=flaky, policy=policy)

    assert result.degraded == "target-unresponsive"
    assert _fsyncs(ops, path) <= 1 + 1
    assert all(handle.closed for handle in ops.handles)


def test_handle_closed_and_synced_after_a_raising_probe(tmp_path):
    calls = []

    def raising(candidate):
        calls.append(1)
        if len(calls) > 5:
            raise RuntimeError("probe blew up")
        return verdict(candidate)

    path = tmp_path / "reduce.jsonl"
    ops = HandleKeepingOps()
    with pytest.raises(RuntimeError, match="probe blew up"):
        # Without a policy, probe errors propagate out of the run.
        _reduce(path, ops, test=raising, policy=None)

    assert _decisions(path) == 5
    assert _fsyncs(ops, path) == 1  # the raised run's last group commit
    assert all(handle.closed for handle in ops.handles)


def test_failed_group_fsync_degrades_the_reduction(tmp_path):
    path = tmp_path / "reduce.jsonl"
    ops = HandleKeepingOps([Fault(op="fsync", index=0)])
    result = _reduce(path, ops)

    assert result.degraded == "oracle-error: OSError"
    assert all(handle.closed for handle in ops.handles)


def test_kill_before_any_fsync_resumes_byte_identically(tmp_path):
    full_path = tmp_path / "full.jsonl"
    full = _reduce(full_path, None)
    full_lines = full_path.read_bytes().splitlines(keepends=True)

    # Die mid-write of the 21st decision: twenty decisions (and the header)
    # reached the file through the held handle, none of them fsync'd.
    path = tmp_path / "killed.jsonl"
    ops = HandleKeepingOps([Fault(op="write", index=21, mode="kill", tear_at=10)])
    with pytest.raises(ChaosKill):
        _reduce(path, ops)
    kill_at = [i for i, (op, _) in enumerate(ops.ops) if op == "write"][21]
    assert "fsync" not in [op for op, _ in ops.ops[:kill_at]]
    killed = path.read_bytes()
    assert killed.startswith(b"".join(full_lines[:21]))
    assert len(killed) == len(b"".join(full_lines[:21])) + 10

    resumed = _reduce(path, None, resume=True)
    assert resumed.to_json() == full.to_json()
    assert path.read_bytes() == full_path.read_bytes()
