"""The fuzz stream, pinned.

Indexes and memos in the fuzzer's queries must not change a single RNG draw,
so every transformation the fuzzer records, and every variant it builds,
must stay byte-identical.  Over seeds 0–299 (reference programs round-robin,
the donor corpus as donors, 120 transformations at most) the sha256 over
each seed's sorted-key transformation JSON followed by ``repr`` of the
variant's fingerprint is pinned, together with the number of transformations.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.transformation import sequence_to_json

SEEDS = range(300)
PINNED_SHA256 = "b39f68dafefcc191dd978f688c6b51ed47630e5ebb38950dda7c2758d628e777"
PINNED_TRANSFORMATIONS = 16_166


def test_fuzz_stream_is_pinned(references, donors):
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=120))
    digest = hashlib.sha256()
    transformations = 0
    for seed in SEEDS:
        program = references[seed % len(references)]
        result = fuzzer.run(program.module, program.inputs, seed=seed)
        transformations += len(result.transformations)
        digest.update(
            json.dumps(sequence_to_json(result.transformations), sort_keys=True).encode()
        )
        digest.update(repr(result.variant.fingerprint()).encode())
    assert (digest.hexdigest(), transformations) == (
        PINNED_SHA256,
        PINNED_TRANSFORMATIONS,
    )
