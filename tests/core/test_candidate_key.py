"""``ReductionJournal.candidate_key`` keeps its bytes with a memo.

The key is joined from each transformation's memoised canonical JSON; it
must hash exactly the bytes of the original whole-list formula, or every
golden and resumed reduction journal would change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.transformation import Transformation, sequence_to_json
from repro.corpus import donor_programs, reference_programs
from repro.robustness.journal import ReductionJournal


def reference_key(candidate) -> str:
    """The formula the memoised key must reproduce byte for byte."""
    try:
        payload = json.dumps(sequence_to_json(candidate), sort_keys=True)
    except (AttributeError, TypeError):
        payload = json.dumps([repr(item) for item in candidate])
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


@dataclass
class Payload(Transformation):
    """A stub transformation carrying an arbitrary JSON payload."""

    type_name = "CandidateKeyPayloadStub"

    payload: Any

    def precondition(self, ctx):  # pragma: no cover - never applied here
        return True

    def apply(self, ctx):  # pragma: no cover
        pass


def _fuzzed() -> list[Transformation]:
    program = reference_programs()[0]
    fuzzer = Fuzzer(donor_programs()[:2], FuzzerOptions(max_transformations=40))
    return fuzzer.run(program.module, program.inputs, seed=3).transformations


FUZZED = _fuzzed()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

transformations = st.sampled_from(FUZZED) | json_values.map(Payload)


def test_fuzzed_pool_is_not_trivial():
    assert len(FUZZED) >= 10
    assert len({t.type_name for t in FUZZED}) >= 3


@settings(max_examples=300, deadline=None)
@given(st.lists(transformations, max_size=30))
def test_memoised_key_matches_the_whole_list_formula(candidate):
    memo: dict = {}
    assert ReductionJournal.candidate_key(candidate) == reference_key(candidate)
    assert ReductionJournal.candidate_key(candidate, memo) == reference_key(candidate)
    # A second lookup through the warm memo, and any subsequence of it.
    assert ReductionJournal.candidate_key(candidate, memo) == reference_key(candidate)
    tail = candidate[1::2]
    assert ReductionJournal.candidate_key(tail, memo) == reference_key(tail)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers() | st.text(max_size=5) | transformations, max_size=10))
def test_opaque_doubles_fall_back_to_repr(candidate):
    memo: dict = {}
    assert ReductionJournal.candidate_key(candidate, memo) == reference_key(candidate)
    assert ReductionJournal.candidate_key(candidate, memo) == reference_key(candidate)


def test_memo_holds_each_transformation_once():
    memo: dict = {}
    ReductionJournal.candidate_key(FUZZED, memo)
    ReductionJournal.candidate_key(FUZZED[::-1] + FUZZED[:3], memo)
    assert len(memo) == len(FUZZED)
    assert all(memo[id(t)][0] is t for t in FUZZED)
