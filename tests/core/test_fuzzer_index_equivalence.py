"""The indexed availability, location and synonym queries against their
old walks.

The fuzzer's RNG draws depend on the length and order of every list these
queries return, so the indexed answers must equal the references in
``reference_fuzzer.py`` element for element, at every insertion point of
every context a fuzzing run passes through.
"""

from __future__ import annotations

import random

import pytest

from repro.core.context import Context
from repro.core.facts import plain
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.fuzzer_passes import DonorBank, build_passes
from repro.core.transformations.insertion import InsertBefore
from repro.ir import types as tys
from repro.ir.module import Block, Instruction, IrError
from repro.ir.opcodes import Op
from tests.core.reference_fuzzer import (
    ReferenceAvailability,
    reference_id_operand_slots,
    reference_ids_available_at,
    reference_insertion_points,
    reference_plain_synonyms_of,
    reference_random_points,
    reference_resolve,
    reference_values_at,
    reference_values_of_type,
)

SEEDS = range(6)
MAX_TRANSFORMATIONS = 40

PREDICATES = {
    "any": lambda value_id, ty: True,
    "int": lambda value_id, ty: isinstance(ty, tys.IntType),
    "pointer": lambda value_id, ty: isinstance(ty, tys.PointerType),
}


def _replayed_states(references, donors, seeds=SEEDS):
    """Every context a fuzzing run passes through: the start, then one per
    applied transformation, replayed on a fresh context."""
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS))
    for seed in seeds:
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
        for point in reference_insertion_points(function):
            _, block, index = point.resolve(ctx)
            anchor = block.instructions[index] if index < len(block.instructions) else None
            assert availability.ids_available_at(
                block.label_id, anchor
            ) == reference_ids_available_at(availability, block.label_id, anchor)
            for name, predicate in PREDICATES.items():
                assert values_pass._values_at(ctx, point, predicate) == (
                    reference_values_at(ctx, point, predicate)
                ), name
            typed = availability.typed_available_at(block.label_id, anchor)
            for wanted in {ty for _, ty in typed if ty is not None} | {MISSING_TYPE}:
                expected = reference_values_of_type(ctx, point, wanted)
                assert values_pass._values_of_type(ctx, point, wanted) == expected
                # Asked again, the memoized bucket answers the same.
                assert values_pass._values_of_type(ctx, point, wanted) == expected
            positions += 1
    return positions


#: A type no module declares: its bucket is always empty.
MISSING_TYPE = tys.ArrayType(tys.IntType(), 977)


def _same_location(got, expected) -> bool:
    """Equal ``(function, block, index)`` locations, the function and block
    compared by identity."""
    if got is None or expected is None:
        return got is expected
    return got[0] is expected[0] and got[1] is expected[1] and got[2] == expected[2]


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
        _assert_available_at_matches(ctx)


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


def test_locations_match_the_module_scan_after_every_transformation(references, donors):
    """``InsertBefore.resolve`` from the context's position and label maps
    against the scan, for every id the module defines taken both as an
    anchor and as a block label, and for ids it does not define."""
    anchored = 0
    for ctx in _replayed_states(references, donors):
        for value_id in sorted(set(ctx.defs()) | {0, ctx.module.id_bound}):
            for point in (InsertBefore(anchor_id=value_id), InsertBefore(block_label=value_id)):
                got = point.resolve(ctx)
                assert _same_location(got, reference_resolve(point, ctx)), point
                anchored += got is not None and bool(point.anchor_id)
            located = ctx.module.containing_block(value_id)
            position = ctx.position(value_id)
            if located is None:
                assert position is None
            else:
                function, block, index = position
                assert (function, block) == located
                assert located[1].instructions[index].result_id == value_id
    assert anchored > 1000


def _assert_available_at_matches(ctx) -> int:
    """Every (def, position) pair of every function, over the ids the module
    defines plus an undefined one, at each body instruction, the terminator,
    the block end (``use_inst=None``) and instructions outside the block:
    one in no block, and the first of every other block."""
    pairs = 0
    ids = sorted(set(ctx.defs()) | {ctx.module.id_bound})
    detached = Instruction(Op.Return)
    for function in ctx.module.functions:
        availability = ctx.availability(function)
        reference = ReferenceAvailability(ctx.module, function)
        firsts = [b.instructions[0] for b in function.blocks if b.instructions]
        for block in function.blocks:
            label = block.label_id
            outsiders = [i for i in firsts if i not in block.instructions]
            for use in (*block.instructions, block.terminator, None, detached, *outsiders):
                for def_id in ids:
                    assert availability.available_at(def_id, label, use) == (
                        reference.available_at(def_id, label, use)
                    ), (def_id, label, use)
                pairs += len(ids)
    return pairs


def test_available_at_matches_the_prefix_walk_at_every_pair(references, donors):
    pairs = sum(
        _assert_available_at_matches(ctx)
        for ctx in _replayed_states(references, donors)
    )
    assert pairs > 100_000


def test_random_points_match_reference(references, donors, values_pass):
    """Same points and the same RNG state after, sampling from every block
    and from dead blocks only."""
    dead_points = 0
    # Seed 6 is the first whose run adds dead blocks.
    for step, ctx in enumerate(_replayed_states(references, donors, seeds=range(8))):
        for dead_only in (False, True):
            for count in (4, 10):
                got_rng, expected_rng = random.Random(step), random.Random(step)
                got = values_pass._random_points(ctx, got_rng, count, dead_only=dead_only)
                expected = reference_random_points(
                    ctx, expected_rng, count, dead_only=dead_only
                )
                assert got == expected
                assert got_rng.getstate() == expected_rng.getstate()
                dead_points += len(got) if dead_only else 0
    assert dead_points > 0


def test_id_operand_slots_match_reference(references, donors, values_pass):
    for ctx in _replayed_states(references, donors, seeds=range(2)):
        for inst in ctx.module.all_instructions():
            assert list(values_pass._id_operand_slots(inst)) == (
                reference_id_operand_slots(inst)
            ), inst.key()
    # A malformed operand count is never memoized: it raises every time.
    malformed = Instruction(Op.IAdd, 9, 1, [2])
    for _ in range(2):
        with pytest.raises(IrError):
            values_pass._id_operand_slots(malformed)
