"""Checkpoint/resume: journaled campaigns survive kills and resume identically."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.compilers import make_targets
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.corpus import donor_programs, reference_programs
from repro.robustness import record_to_run, run_to_record

from tests.robustness.faults import result_key

SEEDS = list(range(8))
OPTIONS = FuzzerOptions(max_transformations=100)
REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _harness() -> Harness:
    return Harness(make_targets(), reference_programs(), donor_programs(), OPTIONS)


def test_record_round_trips_through_json():
    harness = _harness()
    references = {p.name: p for p in harness.references}
    runs = [harness.run_seed(seed) for seed in SEEDS]
    assert any(run.findings for run in runs)  # exercise the findings branch
    for run in runs:
        record = json.loads(json.dumps(run_to_record(run)))
        rebuilt = record_to_run(record, references)
        assert run_to_record(rebuilt) == run_to_record(run)
        assert (rebuilt.seed, rebuilt.program_name) == (run.seed, run.program_name)


def _reduced(results) -> list:
    return [(r.to_json(), [list(h) for h in r.history]) for r in results]


def test_rebuilt_findings_of_one_record_share_transformations():
    """A seed's findings share one variant's transformation objects in
    process; rebuilt from a journal record they share them too, so
    identity-keyed replay work carries across them, and reducing them is
    byte-identical to reducing the in-process findings."""
    harness = _harness()
    references = {p.name: p for p in harness.references}
    run = next(
        run for run in map(harness.run_seed, SEEDS) if len(run.findings) > 1
    )
    record = json.loads(json.dumps(run_to_record(run)))
    rebuilt = record_to_run(record, references).findings
    first = rebuilt[0].transformations
    for finding in rebuilt[1:]:
        assert finding.transformations is not first  # each keeps its own list
        assert len(finding.transformations) == len(first)
        assert all(a is b for a, b in zip(finding.transformations, first))

    results = _harness().reduce_all(rebuilt)
    assert _reduced(results) == _reduced(_harness().reduce_all(run.findings))
    assert sum(r.replay_stats.digest_answers for r in results) > 0


def test_resume_from_partial_journal_matches_uninterrupted(tmp_path):
    full_journal = tmp_path / "full.jsonl"
    full = _harness().run_campaign(SEEDS, journal=full_journal)
    lines = full_journal.read_text().splitlines(keepends=True)
    assert len(lines) == len(SEEDS)

    partial_journal = tmp_path / "partial.jsonl"
    partial_journal.write_text("".join(lines[:3]))
    resumed = _harness().run_campaign(SEEDS, journal=partial_journal, resume=True)

    assert result_key(resumed) == result_key(full)
    # The resumed journal catches up byte-identically to the uninterrupted one.
    assert partial_journal.read_text() == full_journal.read_text()


def test_resume_after_torn_final_record_is_byte_identical(tmp_path):
    """A record torn by a mid-write kill is truncated in place by the next
    append, so the caught-up journal matches an uninterrupted run's bytes
    (no garbage line survives the repair)."""
    full_journal = tmp_path / "full.jsonl"
    full = _harness().run_campaign(SEEDS, journal=full_journal)
    lines = full_journal.read_bytes().splitlines(keepends=True)

    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(b"".join(lines[:5]) + lines[5][: len(lines[5]) // 2])
    resumed = _harness().run_campaign(SEEDS, journal=torn, resume=True)

    assert result_key(resumed) == result_key(full)
    assert torn.read_bytes() == full_journal.read_bytes()


def test_truncated_and_garbage_lines_are_rerun(tmp_path):
    full_journal = tmp_path / "full.jsonl"
    full = _harness().run_campaign(SEEDS, journal=full_journal)
    lines = full_journal.read_text().splitlines(keepends=True)

    # A journal as a SIGKILL mid-write would leave it: two good records, one
    # line of garbage, and a record cut off halfway through.
    mangled = tmp_path / "mangled.jsonl"
    mangled.write_text("".join(lines[:2]) + "{]not json\n" + lines[2][:40])
    resumed = _harness().run_campaign(SEEDS, journal=mangled, resume=True)

    assert result_key(resumed) == result_key(full)
    references = {p.name: p for p in reference_programs()}
    from repro.robustness import CampaignJournal

    assert sorted(CampaignJournal(mangled).load(references)) == SEEDS


def test_resume_skips_journaled_seeds(tmp_path, monkeypatch):
    journal = tmp_path / "journal.jsonl"
    full = _harness().run_campaign(SEEDS, journal=journal)

    harness = _harness()

    def boom(seed, program=None):
        raise AssertionError(f"journaled seed {seed} was re-run")

    monkeypatch.setattr(harness, "run_seed", boom)
    resumed = harness.run_campaign(SEEDS, journal=journal, resume=True)
    assert result_key(resumed) == result_key(full)


def test_cli_resume_requires_journal():
    from repro.cli import campaign_main

    with pytest.raises(SystemExit):
        campaign_main(["--resume"])


def test_sigkill_mid_campaign_then_resume(tmp_path):
    """The acceptance scenario: SIGKILL a journaling campaign partway, resume
    it, and get a result identical to a run that was never interrupted."""
    journal = tmp_path / "killed.jsonl"
    seeds = 24
    script = (
        "import sys\n"
        "from repro.cli import campaign_main\n"
        "sys.exit(campaign_main(["
        f"'--seeds', '{seeds}', "
        f"'--max-transformations', '{OPTIONS.max_transformations}', "
        f"'--journal', {str(journal)!r}]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            if journal.exists() and journal.read_text().count("\n") >= 2:
                break
            time.sleep(0.005)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    journaled = journal.read_text().count("\n")
    assert journaled >= 2  # the campaign made progress before dying

    resumed = _harness().run_campaign(range(seeds), journal=journal, resume=True)
    uninterrupted = _harness().run_campaign(range(seeds))
    assert result_key(resumed) == result_key(uninterrupted)
    # And the journal now covers the full campaign for any later resume.
    references = {p.name: p for p in reference_programs()}
    from repro.robustness import CampaignJournal

    assert sorted(CampaignJournal(journal).load(references)) == list(range(seeds))
