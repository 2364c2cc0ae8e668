"""``Module.def_map`` walks the module in a flat loop; it must return the
same map, in the same order, as a walk over ``all_instructions`` — on every
corpus program and on fuzzed variants — and name the same first duplicate
when an id is defined twice."""

from __future__ import annotations

import pytest

from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.ir.module import Instruction, IrError, Module
from repro.ir.opcodes import Op


def _reference_def_map(module: Module) -> dict[int, Instruction]:
    defs: dict[int, Instruction] = {}
    for inst in module.all_instructions():
        if inst.result_id is not None:
            if inst.result_id in defs:
                raise IrError(f"duplicate definition of %{inst.result_id}")
            defs[inst.result_id] = inst
    return defs


def _assert_same_map(module: Module) -> None:
    got = module.def_map()
    want = _reference_def_map(module)
    assert list(got) == list(want)
    for result_id, inst in want.items():
        if inst.opcode is Op.Label:
            assert got[result_id].key() == inst.key()
        else:
            assert got[result_id] is inst


def test_matches_the_reference_on_every_corpus_program(references, donors):
    for program in [*references, *donors]:
        _assert_same_map(program.module)


def test_matches_the_reference_on_fuzzed_variants(references, donors):
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=60))
    for seed in range(12):
        program = references[seed % len(references)]
        variant = fuzzer.run(program.module, program.inputs, seed).variant
        _assert_same_map(variant)


def test_synthetic_labels_are_well_formed(straightline_module):
    block = straightline_module.functions[0].blocks[0]
    label = straightline_module.def_map()[block.label_id]
    assert label.key() == Instruction(Op.Label, block.label_id).key()


def _expect_same_error(module: Module) -> str:
    with pytest.raises(IrError) as want:
        _reference_def_map(module)
    with pytest.raises(IrError) as got:
        module.def_map()
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_duplicate_names_the_first_redefinition(straightline_module):
    module = straightline_module.clone()
    function = module.functions[0]
    body = function.blocks[0].instructions
    first, second = body[0], body[1]
    # Two duplicates: the second load redefines the first load's id, and a
    # later instruction redefines the function's own id.  The walk meets
    # the load's redefinition first.
    body[1] = Instruction(
        second.opcode, first.result_id, second.type_id, list(second.operands)
    )
    body[2] = Instruction(
        body[2].opcode, function.result_id, body[2].type_id, list(body[2].operands)
    )
    assert _expect_same_error(module) == (
        f"duplicate definition of %{first.result_id}"
    )


def test_duplicate_label_and_global(straightline_module):
    module = straightline_module.clone()
    block = module.functions[0].blocks[0]
    block.label_id = module.global_insts[0].result_id
    assert _expect_same_error(module) == (
        f"duplicate definition of %{block.label_id}"
    )
