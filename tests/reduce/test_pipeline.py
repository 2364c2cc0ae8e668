"""Pass pipeline semantics: ddmin-equivalence at every worker count, the
behaviour of each built-in pass, give-up budgeting, and result plumbing.

The oracles are module-level frozen dataclasses so they ship to worker
processes under both ``fork`` and pickling (the K > 1 identity tests run
the real speculative engine).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pytest

from repro.core.reducer import reduce_transformations
from repro.reduce import (
    DEFAULT_PASS_NAMES,
    PassPipeline,
    PipelineContext,
    ReductionConfig,
)

ITEMS = list(range(40))


@dataclass(frozen=True)
class SubsetOracle:
    """Interesting iff every needle survives — the classic ddmin oracle."""

    needles: frozenset

    def __call__(self, candidate) -> bool:
        return self.needles <= set(candidate)


@dataclass(frozen=True)
class HashedOracle:
    """Deterministic but irregular verdicts (seeded by *salt*): exercises
    acceptance/rejection interleavings hand-written oracles never produce."""

    needles: frozenset
    salt: int
    total: int

    def __call__(self, candidate) -> bool:
        items = tuple(candidate)
        if not self.needles <= set(items):
            return False
        if len(items) == self.total:
            return True  # the full input must stay interesting
        digest = hashlib.md5(repr((self.salt, items)).encode()).digest()
        return digest[0] % 3 != 0


@dataclass(frozen=True)
class Typed:
    """A minimal stand-in transformation with a ``type_name`` for the
    type-batch pass to group on."""

    type_name: str
    value: int


@dataclass(frozen=True)
class TypedNeedleOracle:
    """Interesting iff every needle (a ``Typed`` item) survives."""

    needles: tuple

    def __call__(self, candidate) -> bool:
        items = set(candidate)
        return all(needle in items for needle in self.needles)


@dataclass(frozen=True)
class TypedHashedOracle:
    """Seeded-irregular oracle over ``Typed`` sequences."""

    needles: tuple
    salt: int
    total: int

    def __call__(self, candidate) -> bool:
        items = tuple(candidate)
        if not all(needle in items for needle in self.needles):
            return False
        if len(items) == self.total:
            return True
        digest = hashlib.md5(repr((self.salt, items)).encode()).digest()
        return digest[0] % 3 != 0


def typed_corpus() -> list:
    kinds = ("alpha", "beta", "gamma", "delta")
    return [Typed(kinds[i % len(kinds)], i) for i in range(24)]


class TestDdminEquivalence:
    """The tentpole identity: ``PassPipeline([ddmin])`` is byte-identical to
    the bare reducer — same subsequence, same ``tests_run``, same accepted
    chunk history — at K ∈ {1, 2, 4} workers."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_subset_oracle_identity(self, workers):
        oracle = SubsetOracle(frozenset({3, 17, 29}))
        bare = reduce_transformations(ITEMS, oracle)
        piped = PassPipeline(["ddmin"]).run(
            ITEMS,
            PipelineContext(
                is_interesting=oracle, config=ReductionConfig(workers=workers)
            ),
        )
        assert piped.transformations == bare.transformations
        assert piped.tests_run == bare.tests_run
        assert piped.history == bare.history
        assert piped.chunks_removed == bare.chunks_removed

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("salt", [1, 2])
    def test_hashed_oracle_identity(self, workers, salt):
        oracle = HashedOracle(
            needles=frozenset({5, 21}), salt=salt, total=len(ITEMS)
        )
        bare = reduce_transformations(ITEMS, oracle)
        piped = PassPipeline(["ddmin"]).run(
            ITEMS,
            PipelineContext(
                is_interesting=oracle, config=ReductionConfig(workers=workers)
            ),
        )
        assert piped.transformations == bare.transformations
        assert piped.tests_run == bare.tests_run
        assert piped.history == bare.history

    def test_callable_context_shorthand(self):
        oracle = SubsetOracle(frozenset({7}))
        bare = reduce_transformations(ITEMS, oracle)
        piped = PassPipeline(["ddmin"]).run(ITEMS, oracle)
        assert piped.transformations == bare.transformations
        assert piped.tests_run == bare.tests_run


class TestPipelineNeverLarger:
    """Adding passes can only help: across seeded oracles the pipeline's
    fixpoint is never larger than a single bare ddmin run."""

    @pytest.mark.parametrize("salt", range(6))
    def test_type_batch_plus_ddmin_not_larger_than_ddmin(self, salt):
        corpus = typed_corpus()
        needles = (corpus[1], corpus[13])
        oracle = TypedHashedOracle(
            needles=needles, salt=salt, total=len(corpus)
        )
        bare = reduce_transformations(corpus, oracle)
        piped = PassPipeline(["type-batch", "ddmin", "payload-shrink"]).run(
            corpus, PipelineContext(is_interesting=oracle)
        )
        assert len(piped.transformations) <= len(bare.transformations)
        # The result is still interesting, like any reduction.
        assert oracle(piped.transformations)


class TestTypeBatchPass:
    def test_removes_whole_types_in_one_probe_each(self):
        corpus = typed_corpus()
        alphas = [item for item in corpus if item.type_name == "alpha"]
        oracle = TypedNeedleOracle(needles=(alphas[0],))
        result = PassPipeline(["type-batch"]).run(
            corpus, PipelineContext(is_interesting=oracle)
        )
        # beta/gamma/delta each drop in a single batch probe; alpha's batch
        # is probed once and rejected (the needle is an alpha).
        assert {item.type_name for item in result.transformations} == {"alpha"}
        stats = result.pass_stats[0]
        assert stats.name == "type-batch"
        assert stats.probes == 4
        assert stats.accepted == 3
        assert stats.removed == len(corpus) - len(alphas)

    def test_fixpoint_reruns_until_no_type_drops(self):
        # Removing the "beta" batch only becomes acceptable once "gamma" is
        # gone, so a single sweep is not enough.
        corpus = [
            Typed("alpha", 0),
            Typed("alpha", 1),
            Typed("beta", 2),
            Typed("beta", 3),
            Typed("gamma", 4),
            Typed("gamma", 5),
        ]

        def oracle(candidate):
            items = set(candidate)
            if Typed("alpha", 0) not in items:
                return False
            # Some beta must stay while any gamma is present.
            has_beta = any(t.type_name == "beta" for t in items)
            has_gamma = any(t.type_name == "gamma" for t in items)
            if has_gamma and not has_beta:
                return False
            return True

        result = PassPipeline(["type-batch"]).run(
            corpus, PipelineContext(is_interesting=oracle)
        )
        assert {t.type_name for t in result.transformations} == {"alpha"}

    def test_single_member_batches_are_left_to_ddmin(self):
        # A one-member batch is a single-element removal: type-batch skips
        # it without probing (that is ddmin's territory).
        corpus = [Typed("alpha", 0), Typed("beta", 1), Typed("gamma", 2)]
        result = PassPipeline(["type-batch"]).run(
            corpus, PipelineContext(is_interesting=lambda candidate: True)
        )
        assert result.transformations == corpus
        assert result.pass_stats[0].probes == 0


class TestPayloadShrinkPass:
    def test_int_constant_binary_searches_to_the_floor(self):
        from repro.core.transformations.support import AddConstant

        corpus = [AddConstant(100, 1, value=37)]

        def oracle(candidate):
            return bool(candidate) and candidate[0].value >= 5

        result = PassPipeline(["payload-shrink"]).run(
            corpus, PipelineContext(is_interesting=oracle)
        )
        assert result.transformations[0].value == 5

    def test_bool_and_float_constants_shrink(self):
        from repro.core.transformations.support import AddConstant

        corpus = [AddConstant(100, 1, value=True), AddConstant(101, 2, value=2.5)]
        result = PassPipeline(["payload-shrink"]).run(
            corpus, PipelineContext(is_interesting=lambda candidate: True)
        )
        assert result.transformations[0].value is False
        assert result.transformations[1].value == 0.0

    def test_negative_constant_shrinks_toward_zero(self):
        from repro.core.transformations.support import AddConstant

        corpus = [AddConstant(100, 1, value=-40)]

        def oracle(candidate):
            return bool(candidate) and abs(candidate[0].value) >= 3

        result = PassPipeline(["payload-shrink"]).run(
            corpus, PipelineContext(is_interesting=oracle)
        )
        assert abs(result.transformations[0].value) == 3

    def test_function_lines_shrink_to_fixpoint(self):
        from repro.core.transformations.functions import AddFunction

        line_b = "%5 = OpIAdd %2 %4 %4"
        line_a = "%6 = OpIMul %2 %5 %5"
        corpus = [
            AddFunction(
                function_lines=[
                    "%10 = OpFunction %1 None %3",
                    "%11 = OpLabel",
                    line_b,
                    line_a,
                    "OpReturn",
                    "OpFunctionEnd",
                ],
                make_livesafe=True,
                livesafe_ids=[99],
            )
        ]

        def oracle(candidate):
            if not candidate:
                return False
            lines = candidate[0].function_lines
            # line_b may only go once line_a is gone — needs a second sweep.
            return not (line_b in lines and line_a not in lines)

        result = PassPipeline(["payload-shrink"]).run(
            corpus, PipelineContext(is_interesting=oracle)
        )
        final = result.transformations[0]
        assert line_a not in final.function_lines
        assert line_b not in final.function_lines
        # The livesafe wrapping is dropped when the bug survives without it.
        assert final.make_livesafe is False


class TestGiveUp:
    def test_greedy_pass_gives_up_after_consecutive_rejections(self):
        corpus = typed_corpus()  # 4 types -> 4 batch-removal probes per sweep
        full = list(corpus)

        def only_full(candidate):
            return list(candidate) == full

        result = PassPipeline(["type-batch"], giveup=2).run(
            corpus, PipelineContext(is_interesting=only_full)
        )
        stats = result.pass_stats[0]
        # Two probes hit the budget; the remaining batches auto-reject
        # without probing.
        assert stats.probes == 2
        assert stats.gave_up == 1
        assert result.transformations == full

    def test_no_budget_probes_everything(self):
        corpus = typed_corpus()
        full = list(corpus)

        def only_full(candidate):
            return list(candidate) == full

        result = PassPipeline(["type-batch"], giveup=None).run(
            corpus, PipelineContext(is_interesting=only_full)
        )
        assert result.pass_stats[0].probes == 4
        assert result.pass_stats[0].gave_up == 0


class TestPlumbing:
    def test_non_interesting_input_raises(self):
        with pytest.raises(ValueError):
            PassPipeline(["ddmin"]).run(
                ITEMS, PipelineContext(is_interesting=lambda c: False)
            )

    def test_unknown_pass_name_raises(self):
        with pytest.raises(ValueError, match="unknown reduction pass"):
            PassPipeline(["no-such-pass"])

    def test_duplicate_pass_names_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            PassPipeline(["ddmin", "ddmin"])

    def test_empty_pipeline_raises(self):
        with pytest.raises(ValueError):
            PassPipeline([])

    def test_result_json_carries_per_pass_stats(self):
        oracle = SubsetOracle(frozenset({3}))
        result = PassPipeline(["type-batch", "ddmin"]).run(
            ITEMS, PipelineContext(is_interesting=oracle)
        )
        data = result.to_json()
        assert [entry["name"] for entry in data["passes"]] == [
            "type-batch",
            "ddmin",
        ]
        for entry in data["passes"]:
            assert set(entry) == {
                "name",
                "runs",
                "probes",
                "accepted",
                "removed",
                "gave_up",
            }

    def test_module_pass_skipped_without_module_probe(self):
        oracle = SubsetOracle(frozenset({3}))
        result = PassPipeline(DEFAULT_PASS_NAMES).run(
            ITEMS, PipelineContext(is_interesting=oracle)
        )
        assert result.cleaned_module is None
        cleanup = next(s for s in result.pass_stats if s.name == "cleanup")
        assert cleanup.runs == 0
