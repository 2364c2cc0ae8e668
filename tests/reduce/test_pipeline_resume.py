"""Pipeline checkpoint/resume: a journaling pass pipeline survives SIGKILL
mid-pass and resumes to a byte-identical journal and result, and the journal
pins the pipeline configuration it was written by."""

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
from repro.robustness import ProbeVerdict, ReductionPolicy

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
SEQUENCE = list("abcdefghijkl")
NEEDLES = {"c", "i"}

#: No sleeps, deterministic voting.
POLICY = ReductionPolicy(retry_backoff=0.0)

#: Sequence-stage passes only: the plain-string "transformations" here have
#: no payloads or modules, but ddmin + type-batch exercise the full journal
#: path (strings all share one type, so type-batch probes the scheduler
#: without shrinking anything).
PASSES = ("type-batch", "ddmin")


def oracle(candidate) -> ProbeVerdict:
    return ProbeVerdict(NEEDLES.issubset(candidate))


def run_pipeline(journal, *, resume=False, test=oracle, passes=PASSES, giveup=None):
    ctx = PipelineContext(
        verdict_test=test,
        config=ReductionConfig(policy=POLICY),
        journal=journal,
        resume=resume,
    )
    return PassPipeline(passes, giveup=giveup).run(SEQUENCE, ctx)


class TestInProcessResume:
    def test_clean_runs_are_byte_identical(self, tmp_path):
        first = run_pipeline(tmp_path / "first.jsonl")
        second = run_pipeline(tmp_path / "second.jsonl")
        assert first.to_json() == second.to_json()
        assert (tmp_path / "first.jsonl").read_bytes() == (
            tmp_path / "second.jsonl"
        ).read_bytes()

    def test_every_truncation_point_resumes_identically(self, tmp_path):
        full_journal = tmp_path / "full.jsonl"
        full = run_pipeline(full_journal)
        assert full.degraded is None
        full_bytes = full_journal.read_bytes()
        lines = full_bytes.decode().splitlines(keepends=True)

        for keep in range(1, len(lines)):
            partial = tmp_path / f"partial_{keep}.jsonl"
            partial.write_text("".join(lines[:keep]))
            resumed = run_pipeline(partial, resume=True)
            assert resumed.to_json() == full.to_json(), f"diverged at {keep}"
            assert partial.read_bytes() == full_bytes, f"diverged at {keep}"

    def test_complete_journal_resumes_without_probing(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        full = run_pipeline(journal)

        probed = []

        def boom(candidate):
            probed.append(tuple(candidate))
            raise AssertionError("journaled decision was re-probed")

        resumed = run_pipeline(journal, resume=True, test=boom)
        assert probed == []
        assert resumed.to_json() == full.to_json()
        assert resumed.stability["probes"] == full.stability["probes"]

    def test_config_record_pins_the_pass_list(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_pipeline(journal)
        with pytest.raises(ValueError, match="different pass pipeline"):
            run_pipeline(journal, resume=True, passes=("ddmin",))

    def test_config_record_pins_the_giveup_budget(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_pipeline(journal)
        with pytest.raises(ValueError, match="different pass pipeline"):
            run_pipeline(journal, resume=True, giveup=7)

    def test_a_classic_journal_pins_ddmin_alone(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_pipeline(journal, passes=("ddmin",))
        with pytest.raises(ValueError, match="different pass pipeline"):
            run_pipeline(journal, resume=True)

    def test_config_record_lands_in_the_journal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_pipeline(journal)
        records = [
            json.loads(line)
            for line in journal.read_text().splitlines()
        ]
        configs = [r for r in records if "pipeline" in r]
        assert len(configs) == 1
        assert configs[0]["pipeline"] == list(PASSES)
        assert configs[0]["giveup"] is None


class TestSigkillResume:
    def test_sigkill_mid_pipeline_then_resume(self, tmp_path):
        """The acceptance scenario, end to end through the CLI: SIGKILL a
        journaling *pipeline* reduction partway through, resume it, and get
        a journal and a result byte-identical to an uninterrupted run's."""
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
                "'--reduce-passes', 'default', "
                + ", ".join(repr(arg) for arg in extra)
                + "]))\n"
            )

        journal = tmp_path / "reduce.jsonl"
        # --probe-delay slows each probe so the kill lands mid-pipeline.
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
                if journal.exists() and journal.read_text().count("\n") >= 8:
                    break
                time.sleep(0.005)
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        journaled = journal.read_text().count("\n")
        assert journaled >= 8  # header + config + decisions landed

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
