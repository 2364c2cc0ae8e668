"""The indexed availability and synonym queries against their old walks.

The fuzzer's RNG draws depend on the length and order of every list these
queries return, so the indexed answers must equal the references in
``reference_fuzzer.py`` element for element, at every insertion point of
every context a fuzzing run passes through.
"""

from __future__ import annotations

import pytest

from repro.core.context import Context
from repro.core.facts import plain
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.fuzzer_passes import DonorBank, build_passes
from repro.core.transformations.insertion import InsertBefore, sample_insertion_points
from repro.ir import types as tys
from repro.ir.module import Block, Instruction
from repro.ir.opcodes import Op
from tests.core.reference_fuzzer import (
    reference_ids_available_at,
    reference_plain_synonyms_of,
    reference_values_at,
)

SEEDS = range(6)
MAX_TRANSFORMATIONS = 40

PREDICATES = {
    "any": lambda value_id, ty: True,
    "int": lambda value_id, ty: isinstance(ty, tys.IntType),
    "pointer": lambda value_id, ty: isinstance(ty, tys.PointerType),
}


def _replayed_states(references, donors):
    """Every context a fuzzing run passes through: the start, then one per
    applied transformation, replayed on a fresh context."""
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS))
    for seed in SEEDS:
        program = references[seed % len(references)]
        result = fuzzer.run(program.module, program.inputs, seed=seed)
        ctx = Context.start(program.module, program.inputs)
        yield ctx
        for transformation in result.transformations:
            transformation.apply(ctx)
            ctx.invalidate()
            yield ctx
        assert ctx.module.fingerprint() == result.variant.fingerprint()


def _assert_availability_matches(ctx, values_pass):
    positions = 0
    for function in ctx.module.functions:
        availability = ctx.availability(function)
        for point in sample_insertion_points(ctx, function):
            _, block, index = point.resolve(ctx)
            anchor = block.instructions[index] if index < len(block.instructions) else None
            assert availability.ids_available_at(
                block.label_id, anchor
            ) == reference_ids_available_at(availability, block.label_id, anchor)
            for name, predicate in PREDICATES.items():
                assert values_pass._values_at(ctx, point, predicate) == (
                    reference_values_at(ctx, point, predicate)
                ), name
            positions += 1
    return positions


@pytest.fixture(scope="module")
def values_pass(donors):
    return build_passes(DonorBank(donors))[0]


def test_availability_matches_reference_at_every_point(references, donors, values_pass):
    positions = sum(
        _assert_availability_matches(ctx, values_pass)
        for ctx in _replayed_states(references, donors)
    )
    assert positions > 1000


def test_synonyms_match_reference_after_every_transformation(references, donors):
    queries = nonempty = 0
    for ctx in _replayed_states(references, donors):
        facts = ctx.facts
        ids = set(ctx.defs()) | {d.object_id for d in facts.known_descriptors()}
        for value_id in sorted(ids):
            answer = facts.plain_synonyms_of(value_id)
            assert answer == reference_plain_synonyms_of(facts, value_id), value_id
            queries += 1
            nonempty += bool(answer)
    assert nonempty > 0 and queries > nonempty


def test_unreachable_block_and_broken_layout_match_reference(references, donors, values_pass):
    """Positions the fuzzer never produces: an orphan block that nothing
    branches to, and a dominator laid out after the blocks it dominates."""
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS))
    for seed in SEEDS:
        program = references[seed % len(references)]
        ctx = fuzzer.run(program.module, program.inputs, seed=seed).context
        function = ctx.module.entry_function()
        constant = next(
            inst for inst in ctx.module.global_insts if inst.opcode is Op.Constant
        )
        orphan = Block(ctx.module.fresh_id())
        for _ in range(2):
            orphan.instructions.append(
                Instruction(
                    Op.CopyObject,
                    ctx.module.fresh_id(),
                    constant.type_id,
                    [constant.result_id],
                )
            )
        orphan.terminator = Instruction(Op.Return)
        function.blocks.insert(1, orphan)
        if len(function.blocks) > 3:
            function.blocks.append(function.blocks.pop(2))
        ctx.invalidate()
        assert orphan.label_id not in ctx.availability(function).cfg.reachable
        _assert_availability_matches(ctx, values_pass)


def test_forgotten_ids_leave_synonym_queries_consistent(references, donors):
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS))
    for seed in SEEDS:
        program = references[seed % len(references)]
        facts = fuzzer.run(program.module, program.inputs, seed=seed).context.facts
        ids = sorted({d.object_id for d in facts.known_descriptors()})
        facts.forget_ids(set(ids[::3]))
        for value_id in ids:
            assert facts.plain_synonyms_of(value_id) == reference_plain_synonyms_of(
                facts, value_id
            )
        for forgotten in ids[::3]:
            assert facts.plain_synonyms_of(forgotten) == []
            assert plain(forgotten) not in facts.known_descriptors()
