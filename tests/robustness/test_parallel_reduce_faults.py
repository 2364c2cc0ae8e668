"""Parallel reduction composed with the fault envelope.

``reduce_with_faults(workers=K)`` must be byte-identical to the serial
pipeline — result *and* journal — for deterministic oracles, including
deterministic fault patterns and journal resume; and a SIGKILLed worker
must be recovered with the result unchanged (verdict purity makes
re-probing sound).

Oracles are module-level frozen dataclasses so they ship to workers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.reducer import reduce_transformations
from repro.perf.parallel_reduce import parallel_reduce
from repro.robustness import ProbeVerdict, ReductionPolicy, reduce_with_faults

SEQUENCE = list("abcdefghijkl")
NEEDLES = frozenset({"c", "i"})

#: No sleeps, deterministic voting.
POLICY = ReductionPolicy(retry_backoff=0.0)


@dataclass(frozen=True)
class CleanOracle:
    needles: frozenset

    def __call__(self, candidate) -> ProbeVerdict:
        return ProbeVerdict(self.needles <= set(candidate))


@dataclass(frozen=True)
class DeterministicFaultOracle:
    """Specific candidates always fault, on every probe in every process:
    the fault pattern is a pure function of the candidate, so serial and
    parallel runs absorb identical faults."""

    needles: frozenset
    fault_on: tuple  # candidate tuples whose probes always time out

    def __call__(self, candidate) -> ProbeVerdict:
        if tuple(candidate) in self.fault_on:
            return ProbeVerdict(False, fault="timeout")
        return ProbeVerdict(self.needles <= set(candidate))


@dataclass(frozen=True)
class KillOnceOracle:
    """SIGKILLs the probing worker process the first time a candidate of
    *kill_length* is probed (coordinated through a flag file), then behaves
    like the clean oracle forever after."""

    needles: frozenset
    flag_path: str
    kill_length: int

    def __call__(self, candidate) -> ProbeVerdict:
        if len(candidate) == self.kill_length:
            flag = Path(self.flag_path)
            if not flag.exists():
                flag.write_text("killed")
                os.kill(os.getpid(), signal.SIGKILL)
        return ProbeVerdict(self.needles <= set(candidate))


@dataclass(frozen=True)
class KillerLengthOracle:
    """SIGKILLs *every* worker process that probes a candidate of
    *kill_length*, however often it is re-dispatched; harmless in the
    parent (``multiprocessing.parent_process()`` is None there), so only
    the pool's in-parent fallback can decide those candidates."""

    needles: frozenset
    kill_length: int

    def __call__(self, candidate) -> ProbeVerdict:
        if (
            len(candidate) == self.kill_length
            and multiprocessing.parent_process() is not None
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        return ProbeVerdict(self.needles <= set(candidate))

    def interesting(self, candidate) -> bool:
        return self(candidate).interesting


CLEAN = CleanOracle(NEEDLES)


class TestCleanParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_result_and_stability_match_serial(self, workers):
        serial = reduce_with_faults(SEQUENCE, CLEAN, POLICY)
        parallel = reduce_with_faults(SEQUENCE, CLEAN, POLICY, workers=workers)
        assert parallel.to_json() == serial.to_json()
        assert parallel.transformations == serial.transformations
        assert parallel.tests_run == serial.tests_run
        assert parallel.stability == serial.stability
        assert parallel.degraded is None

    def test_journal_bytes_match_serial(self, tmp_path):
        serial_journal = tmp_path / "serial.jsonl"
        parallel_journal = tmp_path / "parallel.jsonl"
        serial = reduce_with_faults(SEQUENCE, CLEAN, POLICY, journal=serial_journal)
        parallel = reduce_with_faults(
            SEQUENCE, CLEAN, POLICY, journal=parallel_journal, workers=2
        )
        assert parallel.to_json() == serial.to_json()
        assert parallel_journal.read_bytes() == serial_journal.read_bytes()


class TestJournalResume:
    def test_parallel_resume_is_byte_identical(self, tmp_path):
        full_journal = tmp_path / "full.jsonl"
        full = reduce_with_faults(SEQUENCE, CLEAN, POLICY, journal=full_journal)
        full_bytes = full_journal.read_bytes()
        lines = full_bytes.decode().splitlines(keepends=True)

        # Resume a parallel run from several serial-run truncation points:
        # journaled verdicts short-circuit dispatch, fresh ones are probed
        # speculatively, and the journal converges to the same bytes.
        for keep in (1, 3, len(lines) // 2, len(lines) - 1):
            partial = tmp_path / f"partial_{keep}.jsonl"
            partial.write_text("".join(lines[:keep]))
            resumed = reduce_with_faults(
                SEQUENCE, CLEAN, POLICY, journal=partial, resume=True, workers=2
            )
            assert resumed.to_json() == full.to_json(), f"diverged at {keep}"
            assert partial.read_bytes() == full_bytes, f"diverged at {keep}"

    def test_complete_journal_short_circuits_all_dispatch(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        full = reduce_with_faults(SEQUENCE, CLEAN, POLICY, journal=journal)
        resumed = reduce_with_faults(
            SEQUENCE, CLEAN, POLICY, journal=journal, resume=True, workers=2
        )
        assert resumed.to_json() == full.to_json()
        assert resumed.stability["probes"] == full.stability["probes"]


class TestDeterministicFaults:
    def test_fault_pattern_is_absorbed_identically(self):
        # Sabotage the reducer's guaranteed first candidate (the input minus
        # its trailing half-chunk): every probe of it faults, in serial and
        # in every worker alike.
        oracle = DeterministicFaultOracle(
            NEEDLES, (tuple(SEQUENCE[: len(SEQUENCE) // 2]),)
        )
        serial = reduce_with_faults(SEQUENCE, oracle, POLICY)
        parallel = reduce_with_faults(SEQUENCE, oracle, POLICY, workers=2)
        assert serial.stability["faults"]["timeout"] > 0
        assert parallel.to_json() == serial.to_json()
        assert parallel.stability == serial.stability
        assert parallel.degraded is None


class TestWorkerLoss:
    def test_sigkilled_worker_is_recovered_with_identical_result(self, tmp_path):
        flag = tmp_path / "killed.flag"
        oracle = KillOnceOracle(NEEDLES, str(flag), kill_length=9)
        serial = reduce_with_faults(SEQUENCE, CLEAN, POLICY)

        parallel = reduce_with_faults(SEQUENCE, oracle, POLICY, workers=2)
        assert flag.exists(), "the kill never triggered — adjust kill_length"
        assert parallel.to_json() == serial.to_json()
        assert parallel.transformations == serial.transformations
        speculation = getattr(parallel, "speculation", None)
        assert speculation is not None
        assert speculation.worker_recoveries >= 1

    def test_candidate_that_kills_every_worker_runs_in_the_parent(self):
        oracle = KillerLengthOracle(NEEDLES, kill_length=9)
        serial = reduce_with_faults(SEQUENCE, CLEAN, POLICY)
        parallel = reduce_with_faults(SEQUENCE, oracle, POLICY, workers=2)
        assert serial.transformations == ["c", "i"]
        assert parallel.to_json() == serial.to_json()
        assert parallel.degraded is None
        assert parallel.speculation.worker_recoveries >= 1

    def test_parallel_reduce_survives_a_killer_candidate(self):
        oracle = KillerLengthOracle(NEEDLES, kill_length=9)
        serial = reduce_transformations(SEQUENCE, oracle.interesting)
        parallel = parallel_reduce(SEQUENCE, oracle.interesting, workers=2)
        assert parallel.to_json() == serial.to_json()
        assert parallel.speculation.worker_recoveries >= 1
