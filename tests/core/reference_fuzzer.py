"""The fuzzer's availability, location and synonym queries as they were
before they were indexed: ``ids_available_at`` walks every global and
instruction with one dominance check per id, ``_values_at`` looks each id's
def and type up again, ``plain_synonyms_of`` runs ``_find`` over the whole
synonym relation, ``InsertBefore.resolve`` scans the module for the
anchor's block (``Module.containing_block``) and then the block for its
index, ``available_at`` walks the block prefix for same-block order
(``defined_before_in_block``), ``_random_points`` builds an
``InsertBefore`` for every point before shuffling, and the type-equality
queries filter the available list with a predicate.  They live here only as
the references ``test_fuzzer_index_equivalence.py`` compares the production
queries against.
"""

from __future__ import annotations

import random

from repro.core.context import Context
from repro.core.facts import FactManager, plain
from repro.core.transformations.insertion import InsertBefore
from repro.ir.analysis.cfg import Availability, Cfg
from repro.ir.module import Block, Function, Instruction, Module
from repro.ir.opcodes import Op, OperandKind, op_info


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


def reference_resolve(point: InsertBefore, ctx: Context) -> tuple[Function, Block, int] | None:
    if point.anchor_id:
        located = ctx.module.containing_block(point.anchor_id)
        if located is None:
            return None
        function, block = located
        index = next(
            i
            for i, inst in enumerate(block.instructions)
            if inst.result_id == point.anchor_id
        )
        anchor = block.instructions[index]
        if anchor.opcode in (Op.Phi, Op.Variable):
            return None
        return function, block, index
    for function in ctx.module.functions:
        for block in function.blocks:
            if block.label_id == point.block_label:
                return function, block, len(block.instructions)
    return None


def defined_before_in_block(block: Block, def_id: int, use_inst: Instruction) -> bool:
    """True when *def_id* is defined in *block* strictly before *use_inst*.

    The block label itself counts as defined at the top.  *use_inst* may be the
    block's terminator.
    """
    if def_id == block.label_id:
        return True
    for inst in block.instructions:
        if inst is use_inst:
            return False
        if inst.result_id == def_id:
            return True
    return False


class ReferenceAvailability:
    """``Availability.available_at`` with eagerly built id maps and the
    block-prefix walk for same-block order."""

    def __init__(self, module: Module, function: Function) -> None:
        self.function = function
        self.cfg = Cfg.build(function)
        self._global_ids = {
            inst.result_id
            for inst in module.global_insts
            if inst.result_id is not None
        }
        self._global_ids.update(f.result_id for f in module.functions)
        self._param_ids = {p.result_id for p in function.params}
        self._def_block: dict[int, int] = {}
        for block in function.blocks:
            self._def_block[block.label_id] = block.label_id
            for inst in block.instructions:
                if inst.result_id is not None:
                    self._def_block[inst.result_id] = block.label_id

    def available_at(self, def_id: int, block_label: int, use_inst: Instruction | None) -> bool:
        if def_id in self._global_ids or def_id in self._param_ids:
            return True
        def_block = self._def_block.get(def_id)
        if def_block is None:
            return False
        if def_block == block_label:
            if use_inst is None:
                return True
            block = self.function.block(block_label)
            return defined_before_in_block(block, def_id, use_inst)
        return self.cfg.strictly_dominates(def_block, block_label)


def reference_random_points(
    ctx: Context, rng: random.Random, count: int, *, dead_only: bool = False
) -> list[InsertBefore]:
    points: list[InsertBefore] = []
    for function in ctx.module.functions:
        for point in reference_insertion_points(function):
            if dead_only:
                located = reference_resolve(point, ctx)
                if located is None or not ctx.facts.is_dead_block(located[1].label_id):
                    continue
            points.append(point)
    rng.shuffle(points)
    return points[:count]


def reference_insertion_points(function: Function) -> list[InsertBefore]:
    points: list[InsertBefore] = []
    for block in function.blocks:
        for inst in block.instructions:
            if inst.opcode in (Op.Phi, Op.Variable) or inst.result_id is None:
                continue
            points.append(InsertBefore(anchor_id=inst.result_id))
        points.append(InsertBefore(block_label=block.label_id))
    return points


def reference_values_of_type(ctx: Context, point: InsertBefore, wanted) -> list[int]:
    """The fuzzer's ``_values_at`` with the predicate ``ty == wanted``."""
    located = reference_resolve(point, ctx)
    if located is None:
        return []
    function, block, index = located
    anchor = block.instructions[index] if index < len(block.instructions) else None
    return [
        value_id
        for value_id, ty in ctx.availability(function).typed_available_at(
            block.label_id, anchor
        )
        if ty is not None and ty == wanted
    ]


def reference_id_operand_slots(inst: Instruction) -> list[int]:
    return [
        i
        for i, (kind, _) in enumerate(inst.operand_slots())
        if kind is OperandKind.ID
    ]
