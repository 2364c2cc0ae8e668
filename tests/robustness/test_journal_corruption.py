"""Corruption fuzz: journals under arbitrary byte damage, not just torn tails.

The original resume tests only covered kill-truncated *trailing* lines.
These fuzz the campaign, reduction and dedup journals with seeded-random damage at arbitrary offsets —
truncation anywhere, flipped bytes, garbage splices — and require the
recovery invariant: every record the loader returns is **byte-identical to
a record that was actually written** (a consistent prefix/subset), never a
partial merge of two records or a plausibly-parsed mutation.  The CRC-32
seal is what catches interior flips that still parse as JSON.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.compilers import make_targets
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.core.dedup_scale import DedupJournal
from repro.corpus import donor_programs, reference_programs
from repro.robustness import CampaignJournal, ReductionJournal
from repro.robustness.journal import parse_record, seal_record

SEEDS = list(range(6))
FUZZ_ROUNDS = 40


def _campaign_journal(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    harness = Harness(
        make_targets(),
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=80),
    )
    harness.run_campaign(SEEDS, journal=journal_path)
    return journal_path


def _damage(data: bytes, rng: random.Random) -> bytes:
    kind = rng.choice(("truncate", "flip", "splice", "delete"))
    if not data:
        return data
    offset = rng.randrange(len(data))
    if kind == "truncate":
        return data[:offset]
    if kind == "flip":
        flipped = data[offset] ^ (1 << rng.randrange(8))
        return data[:offset] + bytes([flipped]) + data[offset + 1 :]
    if kind == "splice":
        garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 24)))
        return data[:offset] + garbage + data[offset:]
    length = rng.randrange(1, min(24, len(data) - offset) + 1)
    return data[:offset] + data[offset + length :]


def test_campaign_journal_survives_arbitrary_corruption(tmp_path):
    journal_path = _campaign_journal(tmp_path)
    pristine = journal_path.read_bytes()
    originals = {
        seed: json.dumps(record, sort_keys=True)
        for seed, record in CampaignJournal(journal_path).load_records().items()
    }
    assert sorted(originals) == SEEDS

    rng = random.Random(0)
    damaged_path = tmp_path / "damaged.jsonl"
    for _ in range(FUZZ_ROUNDS):
        damaged_path.write_bytes(_damage(pristine, rng))
        recovered = CampaignJournal(damaged_path).load_records()
        for seed, record in recovered.items():
            # Never a partially merged or mutated record: anything the
            # loader accepts is byte-for-byte a record that was written.
            assert seed in originals
            assert json.dumps(record, sort_keys=True) == originals[seed]


def test_flipped_byte_that_still_parses_is_rejected_not_resurfaced():
    record = {"v": 1, "seed": 3, "program": "p", "findings": []}
    line = seal_record(record)
    flipped = line.replace(b'"seed": 3', b'"seed": 7')
    assert flipped != line and json.loads(flipped)  # parses fine...
    assert parse_record(flipped.decode()) is None  # ...but fails its CRC
    assert parse_record(line.decode()) == record


def test_records_without_crc_are_rejected():
    # The checksum is mandatory: if crc-less lines loaded as "legacy", a
    # flip inside the "crc" key itself ('"crc"' -> '"#rc"') would disarm
    # verification and resurface the damaged record with a junk key.
    record = {"v": 1, "seed": 5, "program": "p", "findings": []}
    assert parse_record(json.dumps(record, sort_keys=True)) is None
    disarmed = seal_record(record).replace(b'"crc"', b'"#rc"')
    assert json.loads(disarmed)  # still parses...
    assert parse_record(disarmed.decode()) is None  # ...still rejected


def _reduction_journal(tmp_path):
    journal_path = tmp_path / "reduce.jsonl"
    journal = ReductionJournal(journal_path)
    journal.prepare("seq-key", 10, resume=False)
    for index in range(8):
        journal.append(
            {
                "v": 1,
                "key": f"candidate-{index}",
                "n": 10 - index,
                "verdict": index % 2 == 0,
                "probes": 1,
            }
        )
    return journal_path


def test_reduction_journal_survives_arbitrary_corruption(tmp_path):
    journal_path = _reduction_journal(tmp_path)
    pristine = journal_path.read_bytes()
    originals = ReductionJournal(journal_path).prepare(
        "seq-key", 10, resume=True
    )
    assert len(originals) == 8

    rng = random.Random(1)
    damaged_path = tmp_path / "damaged.jsonl"
    for _ in range(FUZZ_ROUNDS):
        damaged_path.write_bytes(_damage(pristine, rng))
        journal = ReductionJournal(damaged_path)
        try:
            recovered = journal.prepare("seq-key", 10, resume=True)
        except ValueError:
            continue  # a corrupt header may fail loudly — that's allowed
        for key, record in recovered.items():
            assert key in originals
            assert record == originals[key]


def test_reduction_journal_wrong_sequence_fails_loudly(tmp_path):
    journal_path = _reduction_journal(tmp_path)
    with pytest.raises(ValueError):
        ReductionJournal(journal_path).prepare("other-key", 10, resume=True)


def _dedup_journal(tmp_path):
    journal_path = tmp_path / "dedup.jsonl"
    journal = DedupJournal(journal_path)
    journal.prepare("stream-key", resume=False)
    written = []
    for index in range(8):
        record = {
            "v": 1,
            "i": index,
            "test": f"t{index}",
            "sig": f"sig-{index % 3}",
            "pool": "stable",
            "action": "pick" if index % 3 == 0 else "duplicate",
        }
        journal.append(record)
        written.append(record)
    return journal_path, written


def test_dedup_journal_survives_arbitrary_corruption(tmp_path):
    journal_path, written = _dedup_journal(tmp_path)
    pristine = journal_path.read_bytes()
    assert DedupJournal(journal_path).prepare("stream-key", resume=True) == written

    rng = random.Random(2)
    damaged_path = tmp_path / "damaged.jsonl"
    for _ in range(FUZZ_ROUNDS):
        damaged_path.write_bytes(_damage(pristine, rng))
        try:
            recovered = DedupJournal(damaged_path).prepare(
                "stream-key", resume=True
            )
        except ValueError:
            continue  # a corrupt header may fail loudly — that's allowed
        # A contiguous prefix of the written decisions, byte for byte, in
        # order — and the file now holds exactly that prefix.
        assert [json.dumps(r, sort_keys=True) for r in recovered] == [
            json.dumps(r, sort_keys=True) for r in written[: len(recovered)]
        ]
        lines = damaged_path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + len(recovered)
        assert pristine.startswith(b"".join(lines))
