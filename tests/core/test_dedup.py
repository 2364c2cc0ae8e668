"""Deduplication tests: the Figure 6 algorithm and its §3.5 refinement."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.dedup import (
    ReducedTest,
    deduplicate,
    score_against_ground_truth,
    type_signature_of,
)
from repro.core.transformation import SUPPORTING_TYPES
from repro.core.transformations import AddConstant, AddType, MoveBlockDown


def _test(test_id, *types, bug=None):
    return ReducedTest(test_id, frozenset(types), bug)


class TestFigureSixAlgorithm:
    def test_paper_scenario(self):
        """The §2.1 worked example: 35 tests with types {Split, AddDead,
        ChangeRHS}, 42 with {AddStore, AddLoad}, 23 mixing 4+ types — two
        reports expected, one from each homogeneous family."""
        tests = []
        for i in range(35):
            tests.append(_test(f"a{i}", "SplitBlock2", "AddDeadBlock2", "ChangeRHS2"))
        for i in range(42):
            tests.append(_test(f"b{i}", "AddStore2", "AddLoad2"))
        for i in range(23):
            tests.append(
                _test(
                    f"c{i}",
                    "SplitBlock2",
                    "AddDeadBlock2",
                    "ChangeRHS2",
                    "AddStore2",
                    "AddLoad2",
                )
            )
        result = deduplicate(tests)
        assert result.report_count == 2
        chosen_types = [t.types for t in result.to_investigate]
        assert frozenset({"AddStore2", "AddLoad2"}) in chosen_types

    def test_smallest_type_set_first(self):
        tests = [
            _test("big", "A", "B", "C"),
            _test("small", "A"),
        ]
        result = deduplicate(tests)
        assert result.to_investigate[0].test_id == "small"
        assert result.report_count == 1  # 'big' shares type A

    def test_disjoint_tests_all_selected(self):
        tests = [_test("x", "A"), _test("y", "B"), _test("z", "C")]
        assert deduplicate(tests).report_count == 3

    def test_empty_type_sets_skipped(self):
        tests = [_test("empty1"), _test("empty2"), _test("real", "A")]
        result = deduplicate(tests)
        assert result.report_count == 1
        assert result.skipped_empty == 2

    def test_only_empty_sets_terminates(self):
        result = deduplicate([_test("e1"), _test("e2")])
        assert result.report_count == 0
        assert result.skipped_empty == 2

    def test_deterministic_tie_break(self):
        tests = [_test("zz", "A"), _test("aa", "B")]
        result = deduplicate(tests)
        assert [t.test_id for t in result.to_investigate] == ["aa", "zz"]

    @given(
        st.lists(
            st.frozensets(st.sampled_from("ABCDEFG"), min_size=0, max_size=4),
            max_size=25,
        )
    )
    def test_selected_tests_are_pairwise_disjoint(self, type_sets):
        """Property: no two recommended tests share a transformation type."""
        tests = [ReducedTest(f"t{i}", types) for i, types in enumerate(type_sets)]
        chosen = deduplicate(tests).to_investigate
        for i, a in enumerate(chosen):
            for b in chosen[i + 1 :]:
                assert not (a.types & b.types)

    @given(
        st.lists(
            st.frozensets(st.sampled_from("ABCDE"), min_size=1, max_size=3),
            min_size=1,
            max_size=20,
        )
    )
    def test_maximality_property(self, type_sets):
        """Property: every unselected (nonempty) test conflicts with some
        selected test — the algorithm never stops early."""
        tests = [ReducedTest(f"t{i}", types) for i, types in enumerate(type_sets)]
        result = deduplicate(tests)
        union = frozenset().union(*[t.types for t in result.to_investigate]) if result.to_investigate else frozenset()
        for test in tests:
            if test.types and test not in result.to_investigate:
                assert test.types & union


class TestFromTransformations:
    def test_supporting_types_ignored(self):
        seq = [AddType(1, "bool"), AddConstant(2, 1, True), MoveBlockDown(5)]
        reduced = ReducedTest.from_transformations("t", seq)
        assert reduced.types == frozenset({"MoveBlockDown"})

    def test_ignore_list_matches_paper(self):
        # §3.5's fixed list: type/constant/variable support, SplitBlock,
        # AddFunction, ReplaceIdWithSynonym.
        assert "SplitBlock" in SUPPORTING_TYPES
        assert "AddFunction" in SUPPORTING_TYPES
        assert "ReplaceIdWithSynonym" in SUPPORTING_TYPES
        assert "MoveBlockDown" not in SUPPORTING_TYPES


class TestScoring:
    def test_table4_columns(self):
        tests = [
            _test("t1", "A", bug="bug-1"),
            _test("t2", "A", bug="bug-1"),
            _test("t3", "B", bug="bug-2"),
            _test("t4", "C", bug="bug-2"),
            _test("t5", "D", "E", bug="bug-3"),
        ]
        result = deduplicate(tests)
        score = score_against_ground_truth(tests, result)
        assert score["tests"] == 5
        assert score["sigs"] == 3
        assert score["reports"] == result.report_count
        assert score["distinct"] <= score["reports"]
        assert score["dups"] == score["reports"] - score["distinct"]


def _reference_deduplicate(tests):
    """The pre-optimization Figure 6 loop, verbatim — the regression
    oracle for ``deduplicate``.  Also returns each pick's
    ``(pool, test_id, types, suppressed)``: the tests discarded at that
    pick besides the pick itself."""
    to_investigate, skipped_empty, picks = [], 0, []
    for pool, group in (
        ("stable", [t for t in tests if not t.nondeterministic]),
        ("nondeterministic", [t for t in tests if t.nondeterministic]),
    ):
        remaining = [t for t in group if t.types]
        skipped_empty += len(group) - len(remaining)
        remaining.sort(key=lambda t: (len(t.types), t.test_id))
        size = 1
        while remaining:
            chosen = next((t for t in remaining if len(t.types) == size), None)
            if chosen is None:
                size += 1
                continue
            to_investigate.append(chosen)
            before = len(remaining)
            remaining = [t for t in remaining if not (t.types & chosen.types)]
            remaining.sort(key=lambda t: (len(t.types), t.test_id))
            picks.append(
                (pool, chosen.test_id, sorted(chosen.types),
                 before - len(remaining) - 1)
            )
            size = 1
    return to_investigate, skipped_empty, picks


class _RecordingTracer:
    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))


#: Corpora with conflicts, duplicate type sets, empty sets and both pools;
#: ids are unique, so the id tie-break makes the reference unambiguous.
corpus_shapes = st.lists(
    st.tuples(
        st.frozensets(st.sampled_from("ABCDEFGH"), max_size=4),
        st.booleans(),
    ),
    max_size=40,
)


def _corpus(shapes):
    return [
        ReducedTest(f"t{i:02d}", types, nondeterministic=nondet)
        for i, (types, nondet) in enumerate(shapes)
    ]


class TestInnerLoopMicroOpt:
    """``deduplicate`` (a batch call into the streaming engine) picks
    exactly what the original per-pick-resort loop picked, and traces
    exactly the events that loop would have traced."""

    @given(corpus_shapes)
    def test_picks_unchanged(self, shapes):
        tests = _corpus(shapes)
        expected, expected_skipped, _ = _reference_deduplicate(tests)
        result = deduplicate(tests)
        assert result.to_investigate == expected
        assert result.skipped_empty == expected_skipped

    @given(corpus_shapes)
    def test_pick_events_unchanged(self, shapes):
        tests = _corpus(shapes)
        expected, skipped, picks = _reference_deduplicate(tests)
        tracer = _RecordingTracer()
        deduplicate(tests, tracer=tracer)
        assert tracer.events == [
            ("dedup.begin", {"tests": len(tests)}),
            *(
                (
                    "dedup.pick",
                    {
                        "pool": pool,
                        "test_id": test_id,
                        "types": types,
                        "suppressed": suppressed,
                    },
                )
                for pool, test_id, types, suppressed in picks
            ),
            (
                "dedup.end",
                {
                    "tests": len(tests),
                    "reports": len(expected),
                    "skipped_empty": skipped,
                },
            ),
        ]


class TestTypeSignature:
    def test_equal_sets_always_collide(self):
        from repro.core.dedup import type_signature_of

        a = ReducedTest("a", frozenset({"X", "Y", "Z"}))
        b = ReducedTest("b", frozenset({"Z", "X", "Y"}))
        assert a.type_signature == b.type_signature
        assert a.type_signature == type_signature_of(["X", "Y", "Z"])

    def test_signature_is_cached(self):
        test = _test("t", "A", "B")
        assert test.type_signature is test.type_signature  # cached_property

    def test_separator_prevents_concatenation_collisions(self):
        assert (
            _test("a", "AB", "C").type_signature
            != _test("b", "A", "BC").type_signature
        )

    @given(
        st.sets(
            st.frozensets(st.sampled_from("ABCDEFGHIJ"), max_size=5),
            max_size=30,
        )
    )
    def test_distinct_sets_get_distinct_signatures(self, families):
        signatures = {type_signature_of(types) for types in families}
        assert len(signatures) == len(families)
