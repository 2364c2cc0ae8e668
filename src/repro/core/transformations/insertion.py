"""Insertion points for instruction-adding transformations.

Following the paper's independence principle (§2.3), insertion points are
anchored to *instruction ids*, not (block, offset) pairs: removing an earlier
transformation changes offsets but not ids, so anchored transformations stay
applicable under reduction.  The ``before the terminator of block L`` form
covers positions with no following instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import Context
from repro.ir.module import Block, Function, Instruction
from repro.ir.opcodes import Op


@dataclass(frozen=True)
class InsertBefore:
    """``anchor_id != 0``: insert immediately before that instruction.
    ``anchor_id == 0``: insert before the terminator of ``block_label``."""

    anchor_id: int = 0
    block_label: int = 0

    def to_json(self) -> dict:
        return {"anchor_id": self.anchor_id, "block_label": self.block_label}

    @classmethod
    def from_json(cls, record: dict) -> "InsertBefore":
        return cls(int(record["anchor_id"]), int(record["block_label"]))

    def resolve(self, ctx: Context) -> tuple[Function, Block, int] | None:
        """Locate the insertion point, or None when it is invalid.

        A valid point never precedes a phi or a variable (those prefixes are
        structurally pinned).
        """
        if self.anchor_id:
            located = ctx.position(self.anchor_id)
            if located is None:
                return None
            _, block, index = located
            if block.instructions[index].opcode in (Op.Phi, Op.Variable):
                return None
            return located
        labelled = ctx.block_of(self.block_label)
        if labelled is None:
            return None
        function, block = labelled
        return function, block, len(block.instructions)


def insert_instruction(point_result: tuple[Function, Block, int], inst: Instruction) -> None:
    _, block, index = point_result
    block.instructions.insert(index, inst)


def block_insertion_points(block: Block) -> list[tuple[int, int]]:
    """``(anchor_id, block_label)`` of every valid insertion point in
    *block*: before each anchorable instruction, then before the
    terminator."""
    points = [
        (inst.result_id, 0)
        for inst in block.instructions
        if inst.result_id is not None and inst.opcode not in (Op.Phi, Op.Variable)
    ]
    points.append((0, block.label_id))
    return points
