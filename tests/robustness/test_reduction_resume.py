"""Reduction checkpoint/resume: journaled reductions survive SIGKILL and
resume to byte-identical journals and results."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.reduce import PassPipeline, PipelineContext, ReductionConfig
from repro.robustness import (
    ProbeVerdict,
    ReductionJournal,
    ReductionPolicy,
    seal_record,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
SEQUENCE = list("abcdefghijkl")
NEEDLES = {"c", "i"}

#: No sleeps, deterministic voting.
POLICY = ReductionPolicy(retry_backoff=0.0)


def oracle(candidate) -> ProbeVerdict:
    return ProbeVerdict(NEEDLES.issubset(candidate))


def fault_reduce(items, verdict_test, policy, **context):
    """The classic fault-tolerant reduction: ``PassPipeline(["ddmin"])``
    with a verdict test."""
    ctx = PipelineContext(
        verdict_test=verdict_test, config=ReductionConfig(policy=policy), **context
    )
    return PassPipeline(["ddmin"]).run(items, ctx)


def _truncated(journal_text: str, keep: int) -> str:
    """The first *keep* lines plus a record torn mid-write, as a SIGKILL
    between fsyncs would leave the file."""
    lines = journal_text.splitlines(keepends=True)
    assert len(lines) > keep + 1  # the scenario needs lines left to replay
    return "".join(lines[:keep]) + lines[keep][:25]


class TestInProcessResume:
    def test_resume_from_partial_journal_is_byte_identical(self, tmp_path):
        full_journal = tmp_path / "full.jsonl"
        full = fault_reduce(SEQUENCE, oracle, POLICY, journal=full_journal)
        full_bytes = full_journal.read_bytes()
        assert full.degraded is None

        partial = tmp_path / "partial.jsonl"
        partial.write_text(_truncated(full_bytes.decode(), keep=5))
        resumed = fault_reduce(
            SEQUENCE, oracle, POLICY, journal=partial, resume=True
        )

        assert resumed.to_json() == full.to_json()
        assert partial.read_bytes() == full_bytes

    def test_every_truncation_point_resumes_identically(self, tmp_path):
        full_journal = tmp_path / "full.jsonl"
        full = fault_reduce(SEQUENCE, oracle, POLICY, journal=full_journal)
        full_bytes = full_journal.read_bytes()
        lines = full_bytes.decode().splitlines(keepends=True)

        for keep in range(1, len(lines)):
            partial = tmp_path / f"partial_{keep}.jsonl"
            partial.write_text("".join(lines[:keep]))
            resumed = fault_reduce(
                SEQUENCE, oracle, POLICY, journal=partial, resume=True
            )
            assert resumed.to_json() == full.to_json(), f"diverged at {keep}"
            assert partial.read_bytes() == full_bytes, f"diverged at {keep}"

    def test_resume_probes_only_the_unjournaled_tail(self, tmp_path):
        # A resumed run re-probes nothing it can replay and nothing the
        # uninterrupted run never probed: its probes are exactly the tail
        # of the uninterrupted run's probe stream, at every truncation point.
        def recording(probes):
            def test(candidate):
                probes.append(tuple(candidate))
                return oracle(candidate)

            return test

        full_probes: list = []
        full_journal = tmp_path / "full.jsonl"
        fault_reduce(
            SEQUENCE, recording(full_probes), POLICY, journal=full_journal
        )
        lines = full_journal.read_text().splitlines(keepends=True)

        for keep in range(1, len(lines) + 1):
            partial = tmp_path / f"partial_{keep}.jsonl"
            partial.write_text("".join(lines[:keep]))
            resumed_probes: list = []
            fault_reduce(
                SEQUENCE,
                recording(resumed_probes),
                POLICY,
                journal=partial,
                resume=True,
            )
            tail = full_probes[len(full_probes) - len(resumed_probes):]
            assert resumed_probes == tail, f"diverged at {keep}"

    def test_complete_journal_resumes_without_probing(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        full = fault_reduce(SEQUENCE, oracle, POLICY, journal=journal)

        probed = []

        def boom(candidate):
            probed.append(tuple(candidate))
            raise AssertionError("journaled decision was re-probed")

        resumed = fault_reduce(
            SEQUENCE, boom, POLICY, journal=journal, resume=True
        )
        assert probed == []
        assert resumed.to_json() == full.to_json()
        assert resumed.stability["probes"] == full.stability["probes"]

    def test_faulted_decisions_replay_too(self, tmp_path):
        # Journaled fault accounting (retries, fault kinds, faulted flag)
        # folds back into the resumed run's stability verbatim.
        target = tuple(SEQUENCE[: len(SEQUENCE) // 2])

        def faulty(candidate) -> ProbeVerdict:
            if tuple(candidate) == target:
                return ProbeVerdict(False, fault="timeout")
            return ProbeVerdict(NEEDLES.issubset(candidate))

        journal = tmp_path / "journal.jsonl"
        full = fault_reduce(SEQUENCE, faulty, POLICY, journal=journal)
        assert full.stability["faults"]["timeout"] > 0
        full_bytes = journal.read_bytes()

        partial = tmp_path / "partial.jsonl"
        partial.write_text(_truncated(full_bytes.decode(), keep=3))
        resumed = fault_reduce(
            SEQUENCE, faulty, POLICY, journal=partial, resume=True
        )
        assert resumed.to_json() == full.to_json()
        assert partial.read_bytes() == full_bytes

    def test_journal_for_a_different_sequence_is_rejected(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        fault_reduce(SEQUENCE, oracle, POLICY, journal=journal)
        with pytest.raises(ValueError):
            fault_reduce(
                list("zyxwvu") + SEQUENCE,
                oracle,
                POLICY,
                journal=journal,
                resume=True,
            )

    def test_fresh_run_discards_a_stale_journal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(
            seal_record({"header": True, "sequence": "stale", "length": 1})
        )
        result = fault_reduce(SEQUENCE, oracle, POLICY, journal=journal)
        assert result.degraded is None
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["sequence"] == ReductionJournal.candidate_key(SEQUENCE)


class TestSigkillResume:
    def test_sigkill_mid_reduction_then_resume(self, tmp_path):
        """The acceptance scenario, end to end through the CLI: SIGKILL a
        journaling reduction partway, resume it, and get a journal *and* a
        ReductionResult byte-identical to an uninterrupted run's."""
        variant = tmp_path / "variant.json"
        fuzz = (
            "import sys\n"
            "from repro.cli import fuzz_main\n"
            f"sys.exit(fuzz_main(['arith_mix_0', '--seed', '0', "
            f"'--out', {str(variant)!r}]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", fuzz],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )

        def reduce_argv(*extra: str) -> str:
            return (
                "import sys\n"
                "from repro.cli import reduce_main\n"
                f"sys.exit(reduce_main([{str(variant)!r}, "
                "'--target', 'SwiftShader', "
                + ", ".join(repr(arg) for arg in extra)
                + "]))\n"
            )

        journal = tmp_path / "reduce.jsonl"
        # --probe-delay slows each probe so the kill lands mid-reduction.
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                reduce_argv(
                    "--probe-delay", "0.05", "--reduce-journal", str(journal)
                ),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and proc.poll() is None:
                if journal.exists() and journal.read_text().count("\n") >= 6:
                    break
                time.sleep(0.005)
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        journaled = journal.read_text().count("\n")
        assert journaled >= 6  # header + decisions landed before the kill

        resumed_json = tmp_path / "resumed.json"
        subprocess.run(
            [
                sys.executable,
                "-c",
                reduce_argv(
                    "--reduce-journal",
                    str(journal),
                    "--resume",
                    "--out-json",
                    str(resumed_json),
                ),
            ],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )

        clean_journal = tmp_path / "clean.jsonl"
        clean_json = tmp_path / "clean.json"
        subprocess.run(
            [
                sys.executable,
                "-c",
                reduce_argv(
                    "--reduce-journal",
                    str(clean_journal),
                    "--out-json",
                    str(clean_json),
                ),
            ],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )

        assert journal.read_bytes() == clean_journal.read_bytes()
        assert resumed_json.read_bytes() == clean_json.read_bytes()

    def test_cli_resume_requires_journal(self):
        from repro.cli import reduce_main

        with pytest.raises(SystemExit):
            reduce_main(["variant.json", "--target", "SwiftShader", "--resume"])
