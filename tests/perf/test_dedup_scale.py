"""Streaming dedup at scale: batch equivalence and crash-safe decision
journals.

The load-bearing property: :class:`repro.core.dedup_scale.StreamingDedup`
must produce picks *byte-identical* to the batch ``deduplicate`` on every
corpus, at every arrival order — and a SIGKILL mid-stream followed by
``--resume`` must re-derive the same pick set and a byte-identical
decision journal.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dedup import ReducedTest, deduplicate, type_signature_of
from repro.core.dedup_corpus import synthetic_reduced_tests
from repro.core.dedup_scale import (
    DEDUP_JOURNAL_VERSION,
    DedupJournal,
    StreamingDedup,
    iter_stream_tests,
    stream_dedup,
)
from repro.robustness.journal import seal_record

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Random corpora: per-test (type set, nondeterministic) shapes drawn
#: from a small alphabet so conflicts, duplicates, empty sets, and both
#: pools all occur; ids are unique by construction (the batch tie-break
#: is id-based, so duplicate ids would make the oracle ambiguous).
corpus_shapes = st.lists(
    st.tuples(
        st.frozensets(st.sampled_from("ABCDEFGH"), max_size=4),
        st.booleans(),
    ),
    max_size=40,
)


def _corpus(shapes) -> list[ReducedTest]:
    return [
        ReducedTest(f"t{i:03d}", types, nondeterministic=nondet)
        for i, (types, nondet) in enumerate(shapes)
    ]


def _pick_ids(result) -> list[str]:
    return [t.test_id for t in result.to_investigate]


class TestStreamingEqualsBatch:
    @given(shapes=corpus_shapes, order=st.randoms(use_true_random=False))
    def test_every_arrival_order(self, shapes, order):
        tests = _corpus(shapes)
        batch = deduplicate(tests)
        arrival = list(tests)
        order.shuffle(arrival)
        engine = StreamingDedup()
        engine.ingest_many(arrival)
        streamed = engine.result()
        assert _pick_ids(streamed) == _pick_ids(batch)
        assert streamed.skipped_empty == batch.skipped_empty

    def test_empty_stream(self):
        engine = StreamingDedup()
        assert engine.result().to_investigate == []
        assert engine.result().skipped_empty == 0

    def test_nondeterministic_pool_is_separate(self):
        # A flaky test sharing a type with a stable one: both are picked
        # (separate pools), exactly as in the batch algorithm.
        tests = [
            ReducedTest("stable", frozenset({"A"})),
            ReducedTest("flaky", frozenset({"A"}), nondeterministic=True),
        ]
        engine = StreamingDedup()
        engine.ingest_many(tests)
        assert _pick_ids(engine.result()) == _pick_ids(deduplicate(tests))
        assert engine.pick_count("stable") == 1
        assert engine.pick_count("nondeterministic") == 1

    def test_synthetic_corpus_at_modest_scale(self):
        corpus = synthetic_reduced_tests(4000, seed=3)
        batch = deduplicate(corpus)
        engine = StreamingDedup()
        engine.ingest_many(reversed(corpus))  # worst-ish arrival order
        assert _pick_ids(engine.result()) == _pick_ids(batch)

    def test_comparisons_grow_subquadratically(self):
        counts = {}
        for n in (2000, 20000):
            engine = StreamingDedup()
            engine.ingest_many(synthetic_reduced_tests(n, seed=0))
            counts[n] = engine.stats.comparisons
        # 10x the candidates must cost far less than 100x the exact
        # comparisons (a quadratic scan's growth).
        assert counts[20000] < 30 * counts[2000]
        assert counts[20000] / 20000 < 16  # bounded per-candidate work


def _journal_corpus() -> list[ReducedTest]:
    tests = synthetic_reduced_tests(120, seed=7, families=12)
    return tests


class TestDecisionJournal:
    def test_resume_from_every_truncation_point(self, tmp_path):
        """Cut the journal after every prefix of lines (clean cuts and a
        torn tail) and resume: pick set identical, journal byte-identical."""
        tests = _journal_corpus()
        full_path = tmp_path / "full.jsonl"
        full = StreamingDedup(journal=full_path, stream_key="k")
        full.ingest_many(tests)
        full_bytes = full_path.read_bytes()
        expected = _pick_ids(full.result())
        lines = full_path.read_text().splitlines(keepends=True)

        for cut in range(1, len(lines), 17):
            partial = tmp_path / f"cut{cut}.jsonl"
            partial.write_text("".join(lines[:cut]))
            resumed = StreamingDedup(
                journal=partial, resume=True, stream_key="k"
            )
            resumed.ingest_many(tests)
            assert _pick_ids(resumed.result()) == expected
            assert partial.read_bytes() == full_bytes

        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:5]) + lines[5][:23])
        resumed = StreamingDedup(journal=torn, resume=True, stream_key="k")
        resumed.ingest_many(tests)
        assert _pick_ids(resumed.result()) == expected
        assert torn.read_bytes() == full_bytes

    def test_resume_rejects_a_divergent_stream(self, tmp_path):
        path = tmp_path / "dedup.jsonl"
        first = StreamingDedup(journal=path, stream_key="k")
        first.ingest_many(_journal_corpus())
        resumed = StreamingDedup(journal=path, resume=True, stream_key="k")
        with pytest.raises(ValueError, match="diverges"):
            resumed.ingest(ReducedTest("intruder", frozenset({"Z"})))

    def test_resume_rejects_a_foreign_stream_key(self, tmp_path):
        path = tmp_path / "dedup.jsonl"
        StreamingDedup(journal=path, stream_key="mine")
        with pytest.raises(ValueError, match="different input stream"):
            StreamingDedup(journal=path, resume=True, stream_key="theirs")

    def test_resume_restarts_a_version_1_journal(self, tmp_path):
        """A version-1 journal may hold decisions this version never makes
        — here a ``via: sketch`` suppression naming a blocker other than
        the lowest-priority owner.  Resuming it must start the journal
        afresh (not report a divergent stream), byte-identical to a fresh
        run's."""
        tests = [
            ReducedTest("a", frozenset({"A"})),
            ReducedTest("b", frozenset({"B"})),
            ReducedTest("c", frozenset({"A", "B"})),
        ]
        stale = [
            {"header": True, "kind": "dedup-stream", "stream": "k"},
            {"i": 0, "test": "a", "sig": type_signature_of({"A"}),
             "pool": "stable", "action": "pick"},
            {"i": 1, "test": "b", "sig": type_signature_of({"B"}),
             "pool": "stable", "action": "pick"},
            {"i": 2, "test": "c", "sig": type_signature_of({"A", "B"}),
             "pool": "stable", "action": "suppress", "by": "b",
             "via": "sketch", "shared": ["B"]},
        ]
        path = tmp_path / "v1.jsonl"
        path.write_bytes(
            b"".join(seal_record({"v": 1, **record}) for record in stale)
        )
        resumed = StreamingDedup(journal=path, resume=True, stream_key="k")
        resumed.ingest_many(tests)

        fresh_path = tmp_path / "fresh.jsonl"
        fresh = StreamingDedup(journal=fresh_path, stream_key="k")
        fresh.ingest_many(tests)
        assert path.read_bytes() == fresh_path.read_bytes()
        assert _pick_ids(resumed.result()) == ["a", "b"]
        header, *decisions = map(json.loads, path.read_text().splitlines())
        assert header["v"] == DEDUP_JOURNAL_VERSION == 2
        assert decisions[2]["via"] == "owner" and decisions[2]["by"] == "a"

    def test_corrupt_interior_line_is_replayed(self, tmp_path):
        tests = _journal_corpus()
        path = tmp_path / "dedup.jsonl"
        engine = StreamingDedup(journal=path, stream_key="k")
        engine.ingest_many(tests)
        good = path.read_bytes()
        lines = path.read_text().splitlines(keepends=True)
        # Garble a mid-file decision: the contiguity check drops it and
        # everything after, and the replay rewrites the suffix.
        lines[40] = lines[40].replace('"i"', '"j"', 1)
        path.write_text("".join(lines[:41]))
        resumed = StreamingDedup(journal=path, resume=True, stream_key="k")
        resumed.ingest_many(tests)
        assert path.read_bytes() == good

    def test_journal_records_are_checksummed(self, tmp_path):
        path = tmp_path / "dedup.jsonl"
        engine = StreamingDedup(journal=path, stream_key="k")
        engine.ingest(ReducedTest("a", frozenset({"A"})))
        header, decision = path.read_text().splitlines()
        assert json.loads(header)["kind"] == "dedup-stream"
        record = json.loads(decision)
        assert record["crc"] == json.loads(
            seal_record(
                {k: v for k, v in record.items() if k != "crc"}
            ).decode()
        )["crc"]
        assert record["sig"] == type_signature_of({"A"})
        assert record["action"] == "pick"


class TestStreamInputs:
    def test_journal_and_trace_inputs_yield_identical_tests(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        trace = tmp_path / "trace.jsonl"
        record = {
            "v": 1,
            "seed": 4,
            "program": "p",
            "transformation_count": 3,
            "findings": [
                {
                    "target": "T1",
                    "signature": "s",
                    "kind": "crash",
                    "nondeterministic": False,
                    "transformations": [
                        {"type": "MoveBlockDown"},
                        {"type": "AddType"},  # SUPPORTING: ignored
                    ],
                },
                {
                    "target": "T1",
                    "signature": "s2",
                    "kind": "crash",
                    "nondeterministic": True,
                    "transformations": [{"type": "ChangeRHS"}],
                },
            ],
        }
        journal.write_bytes(seal_record(record))
        trace_events = [
            {
                "v": 1,
                "ev": "finding",
                "seed": 4,
                "target": "T1",
                "nondeterministic": False,
                "types": ["MoveBlockDown"],
            },
            {"v": 1, "ev": "probe", "target": "T1", "outcome": "ok"},
            {
                "v": 1,
                "ev": "finding",
                "seed": 4,
                "target": "T1",
                "nondeterministic": True,
                "types": ["ChangeRHS"],
            },
        ]
        trace.write_text(
            "".join(json.dumps(e) + "\n" for e in trace_events)
        )
        from_journal = list(iter_stream_tests(journal))
        from_trace = list(iter_stream_tests(trace))
        assert from_journal == from_trace
        assert from_journal[0].test_id == "4:T1:0"
        assert from_journal[0].types == frozenset({"MoveBlockDown"})
        assert from_journal[1].nondeterministic

    def test_corrupt_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        good = seal_record(
            {
                "v": 1,
                "seed": 1,
                "program": "p",
                "findings": [
                    {
                        "target": "T",
                        "signature": "s",
                        "transformations": [{"type": "X"}],
                    }
                ],
            }
        )
        path.write_bytes(
            b"{]garbage\n"
            + json.dumps({"v": 1, "ev": "probe"}).encode() + b"\n"
            + good
            + good[:25]  # torn tail
        )
        tests = list(iter_stream_tests(path))
        assert [t.test_id for t in tests] == ["1:T:0"]

    def test_pre_types_trace_findings_are_skipped(self, tmp_path):
        path = tmp_path / "old-trace.jsonl"
        path.write_text(
            json.dumps({"v": 1, "ev": "finding", "seed": 0, "target": "T"})
            + "\n"
        )
        assert list(iter_stream_tests(path)) == []


def _write_stream_file(path: Path, tests) -> None:
    """One synthetic campaign journal: a seed record per test."""
    with path.open("wb") as handle:
        for i, test in enumerate(tests):
            handle.write(
                seal_record(
                    {
                        "v": 1,
                        "seed": i,
                        "program": "p",
                        "findings": [
                            {
                                "target": "T",
                                "signature": "s",
                                "nondeterministic": test.nondeterministic,
                                "transformations": [
                                    {"type": name}
                                    for name in sorted(test.types)
                                ],
                            }
                        ],
                    }
                )
            )


class TestSigkillMidDedup:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """The acceptance scenario: SIGKILL ``repro-dedup --stream`` while
        it is journaling decisions, resume, and require the same picks and
        a byte-identical decision journal as an uninterrupted run."""
        tests = synthetic_reduced_tests(250, seed=5, families=25)
        stream = tmp_path / "stream.jsonl"
        _write_stream_file(stream, tests)

        full_journal = tmp_path / "full-dedup.jsonl"
        full_out = tmp_path / "full.json"
        engine = stream_dedup([stream], journal=full_journal)
        full_out.write_text(
            json.dumps(sorted(_pick_ids(engine.result())))
        )

        killed_journal = tmp_path / "killed-dedup.jsonl"
        script = (
            "import sys\n"
            "from repro.cli import dedup_main\n"
            "sys.exit(dedup_main(["
            f"{str(stream)!r}, '--stream', "
            f"'--dedup-journal', {str(killed_journal)!r}, "
            "'--ingest-delay', '0.005']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if (
                    killed_journal.exists()
                    and len(killed_journal.read_bytes().splitlines()) >= 20
                ):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("journal never grew; cannot kill mid-dedup")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait()
        assert killed_journal.read_bytes() != full_journal.read_bytes()

        resumed = stream_dedup(
            [stream], journal=killed_journal, resume=True
        )
        assert sorted(_pick_ids(resumed.result())) == json.loads(
            full_out.read_text()
        )
        # Both journals are bound to the same input path, so even the
        # headers match: the caught-up file must be byte-identical.
        assert killed_journal.read_bytes() == full_journal.read_bytes()

    def test_cli_resume_requires_journal(self):
        from repro.cli import dedup_main

        with pytest.raises(SystemExit):
            dedup_main(["x.jsonl", "--stream", "--resume"])
        with pytest.raises(SystemExit):
            dedup_main(["x.jsonl", "--dedup-journal", "j.jsonl"])
