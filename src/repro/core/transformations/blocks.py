"""Control-flow transformations: splitting, dead blocks, kills, block order,
branch obfuscation, selection wrapping, and instruction propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import Context
from repro.core.transformation import Transformation
from repro.ir import types as tys
from repro.ir.module import Block, Instruction
from repro.ir.opcodes import PURE_OPS, Op
from repro.ir.rewrite import remove_phi_predecessor, split_block


@dataclass
class SplitBlock(Transformation):
    """Split a block before a given instruction (by *id*, per the §2.3
    independence principle) or before a block's terminator.

    Two forms, one type: ``instruction_id != 0`` splits before that
    instruction; otherwise the split happens before the terminator of
    ``block_label``, producing an instruction-free tail block (e.g. a lone
    ``OpKill``).
    """

    type_name = "SplitBlock"

    fresh_label_id: int
    instruction_id: int = 0
    block_label: int = 0

    def _locate(self, ctx: Context):
        if self.instruction_id:
            return ctx.position(self.instruction_id)
        labelled = ctx.block_of(self.block_label)
        if labelled is None:
            return None
        function, block = labelled
        return function, block, len(block.instructions)

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_label_id):
            return False
        located = self._locate(ctx)
        if located is None:
            return False
        _, block, index = located
        if block.terminator is None:
            return False
        if index < len(block.phis()):
            return False
        # The tail must not contain variables (pinned to the entry prefix).
        if any(
            inst.opcode is Op.Variable for inst in block.instructions[index:]
        ):
            return False
        return True

    def apply(self, ctx: Context) -> None:
        located = self._locate(ctx)
        assert located is not None
        function, block, index = located
        ctx.module.claim_id(self.fresh_label_id)
        new_block = split_block(function, block, index, self.fresh_label_id)
        # A dead block's tail is equally dead.
        if ctx.facts.is_dead_block(block.label_id):
            ctx.facts.add_dead_block(new_block.label_id)


@dataclass
class AddDeadBlock(Transformation):
    """Turn an unconditional branch ``b -> s`` into a conditional branch on a
    known-true (or, in the negated form, known-false) constant whose untaken
    side is a fresh, dynamically dead block that falls through to ``s``.

    Following §2.3, the transformation does not mint its own truth value: the
    boolean constant must already exist (``AddConstant`` supplies it), so the
    reducer can strip this transformation independently of the constant.
    Records a ``DeadBlock`` fact.
    """

    type_name = "AddDeadBlock"

    fresh_label_id: int
    existing_block_label: int
    condition_id: int
    negate: bool = False

    def _function(self, ctx: Context):
        for function in ctx.module.functions:
            if function.has_block(self.existing_block_label):
                return function
        return None

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_label_id):
            return False
        function = self._function(ctx)
        if function is None:
            return False
        block = function.block(self.existing_block_label)
        if block.terminator is None or block.terminator.opcode is not Op.Branch:
            return False
        cond = ctx.defs().get(self.condition_id)
        if cond is None:
            return False
        wanted = Op.ConstantFalse if self.negate else Op.ConstantTrue
        return cond.opcode is wanted

    def apply(self, ctx: Context) -> None:
        function = self._function(ctx)
        assert function is not None
        block = function.block(self.existing_block_label)
        assert block.terminator is not None
        successor_label = int(block.terminator.operands[0])
        ctx.module.claim_id(self.fresh_label_id)

        dead = Block(self.fresh_label_id)
        dead.terminator = Instruction(Op.Branch, None, None, [successor_label])
        position = function.block_index(block.label_id)
        function.blocks.insert(position + 1, dead)

        if self.negate:
            targets = [self.fresh_label_id, successor_label]
        else:
            targets = [successor_label, self.fresh_label_id]
        block.terminator = Instruction(
            Op.BranchConditional, None, None, [self.condition_id, *targets]
        )

        # The successor gains the dead block as a predecessor; phis copy the
        # incoming value of the existing edge (values available at the end of
        # `block` are available in the dead block, which it dominates).
        successor = function.block(successor_label)
        for phi in successor.phis():
            for value_id, pred in phi.phi_pairs():
                if pred == block.label_id:
                    phi.operands.extend([value_id, self.fresh_label_id])
                    break
        ctx.facts.add_dead_block(self.fresh_label_id)
        # Anything in a dead block can never affect the output.
        if ctx.facts.is_dead_block(block.label_id):
            pass  # already dead; fact for the new block is enough


@dataclass
class ReplaceBranchWithKill(Transformation):
    """Replace a dead block's branch terminator with ``OpKill`` (or, in the
    second form of this type, ``OpUnreachable``).  Substantially changes the
    static CFG with no dynamic effect (§3.2)."""

    type_name = "ReplaceBranchWithKill"

    block_label: int
    use_unreachable: bool = False

    def _function(self, ctx: Context):
        for function in ctx.module.functions:
            if function.has_block(self.block_label):
                return function
        return None

    def precondition(self, ctx: Context) -> bool:
        if not ctx.facts.is_dead_block(self.block_label):
            return False
        function = self._function(ctx)
        if function is None:
            return False
        block = function.block(self.block_label)
        if block.terminator is None or block.terminator.opcode is not Op.Branch:
            return False
        successor_label = int(block.terminator.operands[0])
        successor = function.block(successor_label)
        # Removing the edge must leave the successor's phis non-empty.
        others = [
            p for p in function.predecessors(successor_label) if p != self.block_label
        ]
        if successor.phis() and not others:
            return False
        # OpKill is only meaningful within the entry point's call tree; both
        # forms are fine anywhere in our IR, but keep OpKill out of functions
        # the entry point cannot reach?  No: dead blocks never execute, so
        # either terminator is sound anywhere.
        return True

    def apply(self, ctx: Context) -> None:
        function = self._function(ctx)
        assert function is not None
        block = function.block(self.block_label)
        assert block.terminator is not None
        successor_label = int(block.terminator.operands[0])
        successor = function.block(successor_label)
        if successor.phis():
            remove_phi_predecessor(successor, self.block_label)
        op = Op.Unreachable if self.use_unreachable else Op.Kill
        block.terminator = Instruction(op)


@dataclass
class MoveBlockDown(Transformation):
    """Swap a block with its syntactic successor when dominance rules allow
    (§3.2): the block must not strictly dominate the next block."""

    type_name = "MoveBlockDown"

    block_label: int

    def _position(self, ctx: Context):
        for function in ctx.module.functions:
            for index, block in enumerate(function.blocks):
                if block.label_id == self.block_label:
                    return function, index
        return None

    def precondition(self, ctx: Context) -> bool:
        located = self._position(ctx)
        if located is None:
            return False
        function, index = located
        if index == 0 or index + 1 >= len(function.blocks):
            return False  # the entry block must stay first
        cfg = ctx.cfg(function)
        next_label = function.blocks[index + 1].label_id
        return not cfg.strictly_dominates(self.block_label, next_label)

    def apply(self, ctx: Context) -> None:
        located = self._position(ctx)
        assert located is not None
        function, index = located
        blocks = function.blocks
        blocks[index], blocks[index + 1] = blocks[index + 1], blocks[index]


@dataclass
class ObfuscateBranch(Transformation):
    """Replace ``OpBranch t`` with ``OpBranchConditional c t t``: whatever
    the condition evaluates to, control reaches ``t``."""

    type_name = "ObfuscateBranch"

    block_label: int
    condition_id: int

    def _function(self, ctx: Context):
        for function in ctx.module.functions:
            if function.has_block(self.block_label):
                return function
        return None

    def precondition(self, ctx: Context) -> bool:
        function = self._function(ctx)
        if function is None:
            return False
        block = function.block(self.block_label)
        if block.terminator is None or block.terminator.opcode is not Op.Branch:
            return False
        if not isinstance(ctx.value_type(self.condition_id), tys.BoolType):
            return False
        availability = ctx.availability(function)
        return availability.available_at(self.condition_id, self.block_label, None)

    def apply(self, ctx: Context) -> None:
        function = self._function(ctx)
        assert function is not None
        block = function.block(self.block_label)
        assert block.terminator is not None
        target = int(block.terminator.operands[0])
        block.terminator = Instruction(
            Op.BranchConditional, None, None, [self.condition_id, target, target]
        )


@dataclass
class WrapRegionInSelection(Transformation):
    """Wrap a block in one branch of a constant conditional (§3.3): in the
    default form the block becomes the 'then' of an always-true conditional;
    with ``negate`` it becomes the 'else' of an always-false conditional.
    Both forms share this one type so deduplication treats them alike."""

    type_name = "WrapRegionInSelection"

    fresh_header_id: int
    block_label: int
    condition_id: int
    negate: bool = False

    def _function(self, ctx: Context):
        for function in ctx.module.functions:
            if function.has_block(self.block_label):
                return function
        return None

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_header_id):
            return False
        function = self._function(ctx)
        if function is None:
            return False
        block = function.block(self.block_label)
        if block is function.entry_block():
            return False
        if block.phis():
            return False
        if block.terminator is None or block.terminator.opcode is not Op.Branch:
            return False
        successor_label = int(block.terminator.operands[0])
        if successor_label == self.block_label:
            return False
        successor = function.block(successor_label)
        if successor.phis():
            return False
        cond = ctx.defs().get(self.condition_id)
        if cond is None:
            return False
        wanted = Op.ConstantFalse if self.negate else Op.ConstantTrue
        if cond.opcode is not wanted:
            return False
        # The never-taken "skip" edge from the new header to the successor
        # still exists *statically*, so the wrapped block no longer dominates
        # anything downstream.  Values defined inside it must therefore not
        # be used outside it.
        defined_here = {
            inst.result_id
            for inst in block.instructions
            if inst.result_id is not None
        }
        if defined_here:
            for other in function.blocks:
                if other is block:
                    continue
                for inst in other.all_instructions():
                    if any(used in defined_here for used in inst.used_ids()):
                        return False
        return True

    def apply(self, ctx: Context) -> None:
        function = self._function(ctx)
        assert function is not None
        block = function.block(self.block_label)
        assert block.terminator is not None
        successor_label = int(block.terminator.operands[0])
        ctx.module.claim_id(self.fresh_header_id)

        header = Block(self.fresh_header_id)
        if self.negate:
            targets = [successor_label, self.block_label]
        else:
            targets = [self.block_label, successor_label]
        header.terminator = Instruction(
            Op.BranchConditional, None, None, [self.condition_id, *targets]
        )
        # Redirect every edge into the block to the new header.
        for other in function.blocks:
            term = other.terminator
            if term is None:
                continue
            if term.opcode is Op.Branch and int(term.operands[0]) == self.block_label:
                term.operands[0] = self.fresh_header_id
            elif term.opcode is Op.BranchConditional:
                for i in (1, 2):
                    if int(term.operands[i]) == self.block_label:
                        term.operands[i] = self.fresh_header_id
        position = function.block_index(self.block_label)
        function.blocks.insert(position, header)
        if ctx.facts.is_dead_block(self.block_label):
            ctx.facts.add_dead_block(self.fresh_header_id)


@dataclass
class PermutePhiOperands(Transformation):
    """Reorder a phi's (value, predecessor) pairs — the pairing is a set, so
    any permutation is semantics-neutral, but real compilers have been known
    to depend on pair order."""

    type_name = "PermutePhiOperands"

    phi_id: int
    rotation: int = 1

    def precondition(self, ctx: Context) -> bool:
        located = ctx.position(self.phi_id)
        if located is None:
            return False
        _, block, index = located
        inst = block.instructions[index]
        if inst.opcode is not Op.Phi:
            return False
        pairs = inst.phi_pairs()
        return len(pairs) >= 2 and 0 < self.rotation < len(pairs)

    def apply(self, ctx: Context) -> None:
        located = ctx.position(self.phi_id)
        assert located is not None
        _, block, index = located
        inst = block.instructions[index]
        pairs = inst.phi_pairs()
        rotated = pairs[self.rotation :] + pairs[: self.rotation]
        inst.operands = [x for pair in rotated for x in pair]


@dataclass
class PropagateInstructionUp(Transformation):
    """Duplicate a pure instruction into each predecessor of its block and
    replace it with a phi over the copies (the Figure 8a transformation).

    Operands that are phis of the same block are rewritten to that phi's
    incoming value for each predecessor, exactly as in the paper's example.
    ``fresh_ids`` maps predecessor labels to the ids of the copies; the phi
    reuses the original instruction's id, so downstream uses are untouched.
    """

    type_name = "PropagateInstructionUp"

    instruction_id: int
    fresh_ids: dict[int, int] = field(default_factory=dict)

    def precondition(self, ctx: Context) -> bool:
        located = ctx.position(self.instruction_id)
        if located is None:
            return False
        function, block, index = located
        inst = block.instructions[index]
        if inst.opcode not in PURE_OPS or inst.opcode is Op.Phi:
            return False
        preds = function.predecessors(block.label_id)
        if not preds or block is function.entry_block():
            return False
        if block.label_id in preds:
            return False  # self-loops would put the copy after its own use
        mapped = {int(k): int(v) for k, v in self.fresh_ids.items()}
        if not set(preds) <= set(mapped):
            return False
        fresh = [mapped[p] for p in preds]
        if not ctx.all_fresh_distinct(fresh):
            return False
        # Every operand must be rewritable per predecessor: either a phi of
        # this block (use its incoming value) or available at each pred's end.
        availability = ctx.availability(function)
        block_phis = {p.result_id: p for p in block.phis()}
        for kind, operand in inst.operand_slots():
            from repro.ir.opcodes import OperandKind

            if kind is not OperandKind.ID:
                continue
            operand_id = int(operand)
            if operand_id in block_phis:
                continue
            for pred in preds:
                if not availability.available_at(operand_id, pred, None):
                    return False
        return True

    def apply(self, ctx: Context) -> None:
        from repro.ir.opcodes import OperandKind, op_info

        located = ctx.position(self.instruction_id)
        assert located is not None
        function, block, index = located
        inst = block.instructions[index]
        preds = function.predecessors(block.label_id)
        mapped = {int(k): int(v) for k, v in self.fresh_ids.items()}
        block_phis = {p.result_id: p for p in block.phis()}

        pairs: list[int] = []
        for pred in preds:
            copy_id = ctx.module.claim_id(mapped[pred])
            copy = inst.clone()
            copy.result_id = copy_id
            # Rewrite operands for this predecessor.
            info = op_info(copy.opcode)
            index = 0
            for kind in info.operands:
                if kind is OperandKind.ID:
                    operand_id = int(copy.operands[index])
                    phi = block_phis.get(operand_id)
                    if phi is not None:
                        incoming = dict(
                            (p, v) for v, p in phi.phi_pairs()
                        )
                        copy.operands[index] = incoming[pred]
                    index += 1
                elif kind in (OperandKind.LITERAL,):
                    index += 1
                else:
                    for rest in range(index, len(copy.operands)):
                        if kind in (OperandKind.ID_REST, OperandKind.OPTIONAL_ID):
                            operand_id = int(copy.operands[rest])
                            phi = block_phis.get(operand_id)
                            if phi is not None:
                                incoming = dict((p, v) for v, p in phi.phi_pairs())
                                copy.operands[rest] = incoming[pred]
                    index = len(copy.operands)
            pred_block = function.block(pred)
            pred_block.instructions.append(copy)
            pairs.extend([copy_id, pred])

        block.instructions.remove(inst)
        phi = Instruction(Op.Phi, self.instruction_id, inst.type_id, pairs)
        block.instructions.insert(len(block.phis()), phi)
