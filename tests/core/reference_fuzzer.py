"""The fuzzer's availability and synonym queries as they were before they
were indexed: ``ids_available_at`` walks every global and instruction with
one dominance check per id, ``_values_at`` looks each id's def and type up
again, and ``plain_synonyms_of`` runs ``_find`` over the whole synonym
relation.  They live here only as the references
``test_fuzzer_index_equivalence.py`` compares the production queries
against.
"""

from __future__ import annotations

from repro.core.context import Context
from repro.core.facts import FactManager, plain
from repro.core.transformations.insertion import InsertBefore
from repro.ir.analysis.cfg import Availability
from repro.ir.module import Instruction
from repro.ir.opcodes import op_info


def reference_ids_available_at(
    availability: Availability, block_label: int, use_inst: Instruction | None
) -> list[int]:
    result: list[int] = []
    for inst in availability.module.global_insts:
        if inst.result_id is not None:
            result.append(inst.result_id)
    result.extend(p.result_id for p in availability.function.params if p.result_id)
    for block in availability.function.blocks:
        for inst in block.instructions:
            if inst.result_id is None:
                continue
            if availability.available_at(inst.result_id, block_label, use_inst):
                result.append(inst.result_id)
    return result


def reference_values_at(ctx: Context, point: InsertBefore, predicate) -> list[int]:
    located = point.resolve(ctx)
    if located is None:
        return []
    function, block, index = located
    availability = ctx.availability(function)
    anchor = block.instructions[index] if index < len(block.instructions) else None
    result = []
    for value_id in reference_ids_available_at(availability, block.label_id, anchor):
        inst = ctx.defs().get(value_id)
        if inst is None or inst.type_id is None:
            continue
        if op_info(inst.opcode).is_type_decl:
            continue
        ty = ctx.types().get(inst.type_id)
        if ty is not None and predicate(value_id, ty):
            result.append(value_id)
    return result


def reference_plain_synonyms_of(facts: FactManager, value_id: int) -> list[int]:
    me = plain(value_id)
    if me not in facts._synonym_parent:
        return []
    root = facts._find(me)
    return sorted(
        d.object_id
        for d in facts._synonym_parent
        if d.is_plain and d.object_id != value_id and facts._find(d) == root
    )
