"""``seal_record`` encodes each record once and keeps the two-encoding bytes.

The reference is the formula the journal format was defined by: the CRC-32
of the record's canonical JSON, then the canonical JSON of the record with
that ``crc`` member added.  Every journal on disk (and the golden files
under ``tests/robustness/golden``) holds these bytes.  The property runs
over seeded random records (``random.Random(seed)``), so a red seed
reproduces from its number alone.
"""

from __future__ import annotations

import json
import random
import zlib

import pytest

from repro.robustness.journal import parse_record, seal_record


def two_encodings(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True)
    sealed = {**record, "crc": zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF}
    return json.dumps(sealed, sort_keys=True).encode("utf-8") + b"\n"


#: Keys around ``crc``'s sorted position: before it, after it, sharing its
#: prefix, upper case (which sorts first) and non-ASCII.
KEYS = ["a", "cr", "crb", "crca", "crd", "cs", "v", "key", "z", "C", "crc_", "é", ""]
TEXT = ["", "plain", "ünïcödé", "日本語", "quote\"back\\slash", "line\nbreak", "🙂"]


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(8 if depth < 3 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randrange(-(2**40), 2**40)
    if kind == 3:
        return rng.uniform(-1e6, 1e6)
    if kind == 4:
        return rng.choice(TEXT)
    if kind in (5, 6):
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return _record(rng, depth + 1, nested=True)


def _record(rng: random.Random, depth: int = 0, *, nested: bool = False) -> dict:
    keys = KEYS + ["crc"] if nested else KEYS  # "crc" may hide in a value
    return {rng.choice(keys): _value(rng, depth) for _ in range(rng.randrange(9))}


@pytest.mark.parametrize("seed", range(5))
def test_one_encoding_matches_the_two_encoding_formula(seed):
    rng = random.Random(seed)
    for _ in range(200):
        record = _record(rng)
        line = seal_record(record)
        assert line == two_encodings(record), record
        assert parse_record(line.decode("utf-8")) == json.loads(
            json.dumps(record, sort_keys=True)
        )


def test_edge_shapes_match_the_two_encoding_formula():
    for record in (
        {},
        {"a": 1},
        {"z": 1},
        {"crb": {"crc": 1}, "crd": ["é", {"b": None}]},
        {"v": 1, "key": "k", "n": 3, "verdict": True, "faults": {}},
        {"crc": 7, "a": 1},  # a record carrying its own crc member
    ):
        assert seal_record(record) == two_encodings(record), record
