"""``repro-report`` tests: summarization, rendering, and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.observability import cache_hit_percent, render, report_main, summarize

#: A miniature two-seed campaign trace exercising every event family.
EVENTS = [
    {"v": 1, "ev": "campaign.begin", "seeds": 2},
    {"v": 1, "ev": "seed.begin", "seed": 0},
    {
        "v": 1,
        "ev": "probe",
        "target": "SwiftShader",
        "outcome": "ok",
        "reference": True,
        "program": "p0",
    },
    {"v": 1, "ev": "probe", "target": "SwiftShader", "outcome": "crash"},
    {
        "v": 1,
        "ev": "finding",
        "seed": 0,
        "target": "SwiftShader",
        "kind": "crash",
        "signature": "sig-a",
        "optimized_flow": False,
        "nondeterministic": False,
    },
    {"v": 1, "ev": "seed.end", "seed": 0, "findings": 1},
    {"v": 1, "ev": "seed.begin", "seed": 1},
    {"v": 1, "ev": "probe", "target": "Amber", "outcome": "timeout"},
    {"v": 1, "ev": "fault", "target": "Amber", "kind": "timeout"},
    {"v": 1, "ev": "retry", "seed": 1, "target": "Amber", "stable": False},
    {"v": 1, "ev": "quarantine", "target": "Amber", "reason": "2 faults"},
    {"v": 1, "ev": "probe.skipped", "seed": 1, "target": "Amber"},
    {"v": 1, "ev": "seed.end", "seed": 1, "findings": 0},
    {
        "v": 1,
        "ev": "reduce.fault",
        "kind": "timeout",
        "attempt": 0,
        "candidate_length": 20,
        "streak": 1,
    },
    {
        "v": 1,
        "ev": "reduce.degraded",
        "reason": "budget-exhausted",
        "detail": "",
        "initial_length": 40,
        "final_length": 3,
        "faults": 1,
    },
    {
        "v": 1,
        "ev": "reduce.end",
        "target": "SwiftShader",
        "kind": "crash",
        "signature": "sig-a",
        "initial_length": 40,
        "final_length": 3,
        "tests_run": 25,
        "chunks_removed": 9,
        "timed_out": False,
        "cache": {
            "requests": 25,
            "scratch_replays": 5,
            "memo_hits": 12,
            "digest_answers": 3,
            "prefix_hits": 8,
        },
    },
    {"v": 1, "ev": "dedup.end", "tests": 4, "reports": 2, "skipped_empty": 1},
]

GOLDEN = """\
Metric                       Value
---------------------------  -------
seeds completed              2
probes run                   2
reference probes             1
probes skipped (quarantine)  1
findings                     1
distinct signatures          1
nondeterministic findings    0
faults                       1
retries (unstable)           1 (1)
targets quarantined          1
reductions                   1
reduction tests run          25
reduction chunks removed     9
reduction length             40 -> 3
reduction faults             1
reductions degraded          1
replay-cache hit %           80.0
replay digest answers        3
dedup runs                   1
dedup reports                2

findings by kind:
Kind   Count
-----  -----
crash  1

findings by signature:
Target :: signature   Count
--------------------  -----
SwiftShader :: sig-a  1

probes by target:
Target       Probes
-----------  ------
Amber        1
SwiftShader  1

faults by kind:
Fault    Count
-------  -----
timeout  1

reduction faults and degradations:
Event                       Count
--------------------------  -----
fault: timeout              1
degraded: budget-exhausted  1

quarantined targets:
Target  Reason
------  --------
Amber   2 faults"""


def _write_trace(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


class TestSummarize:
    def test_counts_every_event_family(self):
        summary = summarize(EVENTS)
        assert summary["seeds"] == 2
        assert summary["probes"] == 2
        assert summary["reference_probes"] == 1
        assert summary["probes_by_outcome"] == {"crash": 1, "timeout": 1}
        assert summary["findings"] == 1
        assert summary["findings_by_signature"] == {"SwiftShader :: sig-a": 1}
        assert summary["faults_by_kind"] == {"timeout": 1}
        assert summary["retries"] == 1 and summary["unstable_retries"] == 1
        assert summary["quarantined"] == {"Amber": "2 faults"}
        assert summary["skipped_probes"] == 1
        assert summary["reductions"] == 1
        assert summary["reduction_tests_run"] == 25
        assert summary["reduction_initial_length"] == 40
        assert summary["reduction_final_length"] == 3
        assert summary["reduce_faults"] == 1
        assert summary["reduce_faults_by_kind"] == {"timeout": 1}
        assert summary["reductions_degraded"] == 1
        assert summary["reductions_degraded_by_reason"] == {
            "budget-exhausted": 1
        }
        assert summary["dedup_runs"] == 1 and summary["dedup_reports"] == 2
        assert summary["cache"]["digest_answers"] == 3

    def test_journal_records_are_understood_too(self):
        journal = [
            {
                "seed": 0,
                "program": "p0",
                "findings": [
                    {
                        "target": "SwiftShader",
                        "kind": "crash",
                        "signature": "sig-a",
                        "nondeterministic": True,
                    }
                ],
                "faults": [["Amber", "timeout"]],
                "skipped_targets": ["Amber"],
            },
            {"seed": 1, "program": "p1", "findings": []},
        ]
        summary = summarize(journal)
        assert summary["journal_records"] == 2
        assert summary["seeds"] == 2
        assert summary["findings"] == 1
        assert summary["nondeterministic_findings"] == 1
        assert summary["faults_by_kind"] == {"timeout": 1}
        assert summary["skipped_probes"] == 1

    def test_cache_hit_percent(self):
        assert cache_hit_percent({}) is None
        assert cache_hit_percent({"requests": 0}) is None
        assert cache_hit_percent(
            {"requests": 25, "scratch_replays": 5}
        ) == pytest.approx(80.0)


class TestRenderGolden:
    def test_golden_output(self):
        assert render(summarize(EVENTS)) == GOLDEN

    def test_a_campaign_end_from_the_batching_era_still_renders(self):
        """Traces written while probes could be batched carry a
        ``probe_batch`` delta on ``campaign.end``; the report ignores it."""
        end = {
            "v": 1,
            "ev": "campaign.end",
            "seeds": 2,
            "probe_cache": {"probes": 10, "outcome_hits": 4},
        }
        legacy = {**end, "probe_batch": {"batches": 3, "probes": 6}}
        text = render(summarize(EVENTS + [legacy]))
        assert text == render(summarize(EVENTS + [end]))
        assert "probe cache:" in text and "batch" not in text

    def test_digest_answers_sum_over_reductions(self):
        """Each ``reduce.end`` carries its own ``digest_answers``; a trace
        written before the counter existed reads as zero."""
        end = next(e for e in EVENTS if e["ev"] == "reduce.end")
        older = {**end, "cache": {k: v for k, v in end["cache"].items()
                                  if k != "digest_answers"}}
        assert "replay digest answers        3\n" in render(
            summarize(EVENTS + [older])
        )
        assert "replay digest answers        6\n" in render(
            summarize(EVENTS + [end])
        )
        assert summarize([older])["cache"].get("digest_answers", 0) == 0


class TestReportMain:
    def test_renders_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        _write_trace(trace, EVENTS)
        assert report_main([str(trace)]) == 0
        assert capsys.readouterr().out.rstrip("\n") == GOLDEN

    def test_json_output(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        _write_trace(trace, EVENTS)
        assert report_main([str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == 2
        assert payload["findings_by_kind"] == {"crash": 1}

    def test_empty_file_fails(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("not json\n\n")
        assert report_main([str(trace)]) == 1
        assert "no trace events" in capsys.readouterr().err

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            report_main([str(tmp_path / "nope.jsonl")])

    def test_truncated_lines_are_skipped(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        _write_trace(trace, EVENTS)
        with trace.open("a") as handle:
            handle.write('{"ev": "torn mid-wri')  # SIGKILL artifact
        assert report_main([str(trace)]) == 0
        assert capsys.readouterr().out.rstrip("\n") == GOLDEN

    def test_journal_record_failing_its_checksum_is_not_counted(
        self, tmp_path, capsys
    ):
        from repro.robustness.journal import seal_record

        record = {
            "v": 1,
            "seed": 3,
            "program": "p0",
            "findings": [
                {"target": "SwiftShader", "kind": "crash", "signature": "s"}
            ],
        }
        line = seal_record(record)
        flipped = line.replace(b'"seed": 3', b'"seed": 7')
        assert flipped != line and json.loads(flipped)  # still parses

        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(flipped)
        assert report_main([str(journal), "--json"]) == 1  # nothing counted
        assert "no trace events or journal records" in capsys.readouterr().err

        journal.write_bytes(flipped + line)
        assert report_main([str(journal), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journal_records"] == 1
        assert payload["seeds"] == 1
        assert payload["findings"] == 1
