"""Structural rewriting utilities shared by optimizer passes and fuzzer
transformations: use replacement, block splitting, phi maintenance, and
function-call inlining with an explicit id mapping.

The explicit id mapping for inlining is load-bearing for the paper's
"maximize independence" design principle (§3.3): an ``InlineFunction``
transformation records the complete mapping from callee ids to fresh ids, so
its effect is insensitive to which *other* transformations survived test-case
reduction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.ir.module import Block, Function, Instruction, IrError, Module
from repro.ir.opcodes import Op


def replace_value_uses(module: Module, old_id: int, new_id: int) -> int:
    """Replace value uses of *old_id* with *new_id* module-wide.

    Phi predecessor slots and branch targets hold block labels, which are
    never value ids, so a plain operand sweep is safe; phi value slots are
    replaced.  Returns the number of replaced uses.
    """
    count = 0
    for function in module.functions:
        for block in function.blocks:
            for inst in block.all_instructions():
                if inst.opcode is Op.Phi:
                    for i in range(0, len(inst.operands), 2):
                        if int(inst.operands[i]) == old_id:
                            inst.operands[i] = new_id
                            count += 1
                elif inst.replace_uses(old_id, new_id):
                    count += 1
    # Globals are shared with clones, so a global that uses *old_id* is
    # rewritten on a copy that takes over its slot.
    for index, inst in enumerate(module.global_insts):
        if old_id not in inst.operands:
            continue
        edited = inst.clone()
        if edited.replace_uses(old_id, new_id):
            module.set_global(index, edited)
            count += 1
    return count


class UseIndex:
    """The value users of every id in *module*, for one pass run.

    A pass makes one index per run and calls :meth:`replace` where it would
    call :func:`replace_value_uses`: the same slots are rewritten (phi value
    slots, other instructions through :meth:`Instruction.replace_uses`,
    globals through :meth:`Module.set_global`), but only in the users of
    the replaced id.  The rewrite is eager, so the module reads exactly as
    it would after the module-wide sweep.

    The index is built on the first replacement.  Globals added later are
    indexed on the next one; an instruction a pass puts into a function
    body after that must be registered with :meth:`add`.  Other edits to
    indexed instructions may drop operands but never add an id.
    Instructions a pass detaches stay indexed, so later replacements still
    rewrite them; nothing reads a detached instruction's operands.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self._users: defaultdict[int, list[Instruction]] | None = None
        self._global_users: defaultdict[int, list[int]] = defaultdict(list)
        self._globals_indexed = 0

    def add(self, inst: Instruction) -> None:
        """Register *inst*, just put into a function body."""
        if self._users is not None:
            self._register(inst)

    def replace(self, old_id: int, new_id: int) -> None:
        """Replace value uses of *old_id* with *new_id* module-wide."""
        if self._users is None:
            self._users = defaultdict(list)
            for function in self.module.functions:
                for block in function.blocks:
                    for inst in block.all_instructions():
                        self._register(inst)
        self._index_new_globals()
        users = self._users.pop(old_id, None)
        if users:
            for inst in users:
                if inst.opcode is Op.Phi:
                    operands = inst.operands
                    for i in range(0, len(operands), 2):
                        if int(operands[i]) == old_id:
                            operands[i] = new_id
                else:
                    inst.replace_uses(old_id, new_id)
            self._users[new_id].extend(users)
        positions = self._global_users.pop(old_id, None)
        if positions:
            for index in positions:
                edited = self.module.global_insts[index].clone()
                if edited.replace_uses(old_id, new_id):
                    self.module.set_global(index, edited)
            self._global_users[new_id].extend(positions)

    def _register(self, inst: Instruction) -> None:
        users = self._users
        for used in inst.operand_ids():
            users[used].append(inst)

    def _index_new_globals(self) -> None:
        global_insts = self.module.global_insts
        for index in range(self._globals_indexed, len(global_insts)):
            for used in global_insts[index].operand_ids():
                self._global_users[used].append(index)
        self._globals_indexed = len(global_insts)


def rewrite_phi_predecessor(block: Block, old_pred: int, new_pred: int) -> None:
    """Update phi incoming-predecessor labels in *block*."""
    for phi in block.phis():
        for i in range(1, len(phi.operands), 2):
            if int(phi.operands[i]) == old_pred:
                phi.operands[i] = new_pred


def remove_phi_predecessor(block: Block, pred: int) -> None:
    """Drop the incoming pair for *pred* from every phi in *block*.

    Phis left with a single incoming pair are kept (copy propagation cleans
    them up); phis left with no pairs would be invalid, so callers must only
    remove predecessors of blocks that still have at least one other.
    """
    for phi in block.phis():
        pairs = phi.phi_pairs()
        kept = [(v, p) for v, p in pairs if p != pred]
        if not kept:
            raise IrError(f"phi %{phi.result_id} would lose all incoming edges")
        phi.operands = [x for pair in kept for x in pair]


def split_block(
    function: Function, block: Block, index: int, new_label_id: int
) -> Block:
    """Split *block* before instruction *index*; the tail (including the
    terminator) moves to a new block with *new_label_id* and the original
    block branches to it.

    The split point must not fall inside the block's leading phis.  Phis in
    the original block's successors are rewired to name the new block as
    their predecessor.  Returns the new block.
    """
    phi_count = len(block.phis())
    if index < phi_count:
        raise IrError("cannot split a block inside its phi prefix")
    if not 0 <= index <= len(block.instructions):
        raise IrError(f"split index {index} out of range")
    new_block = Block(
        new_label_id, block.instructions[index:], block.terminator
    )
    for succ_label in block.successors():
        rewrite_phi_predecessor(function.block(succ_label), block.label_id, new_label_id)
    block.instructions = block.instructions[:index]
    block.terminator = Instruction(Op.Branch, None, None, [new_label_id])
    position = function.block_index(block.label_id)
    function.blocks.insert(position + 1, new_block)
    return new_block


@dataclass(frozen=True)
class InlinePlan:
    """Fresh ids needed to inline one call site.

    ``id_map`` maps every callee-defined id (block labels, instruction and
    parameter results — parameters map to the call's arguments and therefore
    must *not* appear) to a fresh id.  ``continue_label_id`` labels the block
    holding the instructions that followed the call.
    """

    id_map: dict[int, int]
    continue_label_id: int
    result_phi_id: int | None = None


def callee_ids_requiring_fresh(callee: Function) -> list[int]:
    """Ids an :class:`InlinePlan` must remap: labels and result ids of the
    callee's body (parameters excluded — they map to call arguments)."""
    ids: list[int] = []
    for block in callee.blocks:
        ids.append(block.label_id)
        for inst in block.all_instructions():
            if inst.result_id is not None:
                ids.append(inst.result_id)
    return ids


def make_inline_plan(module: Module, callee: Function) -> InlinePlan:
    """Allocate fresh ids for inlining *callee* (used by the optimizer; the
    fuzzer records plans inside transformations instead)."""
    id_map = {old: module.fresh_id() for old in callee_ids_requiring_fresh(callee)}
    return InlinePlan(id_map, module.fresh_id(), module.fresh_id())


def inline_call(
    module: Module,
    caller: Function,
    block: Block,
    call_inst: Instruction,
    plan: InlinePlan,
    *,
    buggy_first_arg_binding: bool = False,
) -> None:
    """Inline *call_inst* (an ``OpFunctionCall`` inside *block*) in place.

    The callee's blocks are cloned with ids rewritten through ``plan.id_map``;
    parameters are bound to the call's arguments (all of them to the first
    argument when ``buggy_first_arg_binding`` is set — an injected-bug hook).
    Callee-local variables migrate to the caller's entry block.  Multiple
    returns meet in the continue block through a phi with
    ``plan.result_phi_id``.
    """
    call_index = block.instructions.index(call_inst)
    callee = module.get_function(int(call_inst.operands[0]))
    args = [int(a) for a in call_inst.operands[1:]]

    binding = dict(plan.id_map)
    for i, param in enumerate(callee.params):
        assert param.result_id is not None
        bound = args[0] if (buggy_first_arg_binding and args) else args[i]
        binding[param.result_id] = bound

    continue_block = split_block(caller, block, call_index + 1, plan.continue_label_id)
    # Drop the call itself (it is now the last instruction of `block`).
    assert block.instructions and block.instructions[-1] is call_inst
    block.instructions.pop()

    cloned: list[Block] = []
    returns: list[tuple[int | None, int]] = []  # (value id or None, block label)
    for callee_block in callee.blocks:
        body = Block(binding[callee_block.label_id])
        for inst in callee_block.instructions:
            copy = inst.clone()
            copy.remap_ids(binding)
            body.instructions.append(copy)
        term = callee_block.terminator
        assert term is not None
        if term.opcode is Op.Return:
            returns.append((None, body.label_id))
            body.terminator = Instruction(Op.Branch, None, None, [plan.continue_label_id])
        elif term.opcode is Op.ReturnValue:
            value = binding.get(int(term.operands[0]), int(term.operands[0]))
            returns.append((value, body.label_id))
            body.terminator = Instruction(Op.Branch, None, None, [plan.continue_label_id])
        else:
            copy = term.clone()
            copy.remap_ids(binding)
            body.terminator = copy
        cloned.append(body)

    # Callee-local variables must live in the caller's entry block.
    caller_entry = caller.entry_block()
    insert_at = 0
    while (
        insert_at < len(caller_entry.instructions)
        and caller_entry.instructions[insert_at].opcode is Op.Variable
    ):
        insert_at += 1
    for body in cloned:
        kept: list[Instruction] = []
        for inst in body.instructions:
            if inst.opcode is Op.Variable:
                caller_entry.instructions.insert(insert_at, inst)
                insert_at += 1
            else:
                kept.append(inst)
        body.instructions = kept

    block.terminator = Instruction(
        Op.Branch, None, None, [binding[callee.entry_block().label_id]]
    )
    position = caller.block_index(block.label_id)
    caller.blocks[position + 1 : position + 1] = cloned

    # The continue block's predecessors are now the return blocks.
    value_returns = [(v, b) for v, b in returns if v is not None]
    if call_inst.result_id is not None and value_returns:
        if len(value_returns) == 1:
            replace_value_uses(module, call_inst.result_id, value_returns[0][0])
        else:
            phi_id = plan.result_phi_id
            if phi_id is None:
                raise IrError("inline plan lacks a result phi id")
            flat: list[int] = []
            for value, ret_block in value_returns:
                flat.extend([value, ret_block])
            phi = Instruction(Op.Phi, phi_id, call_inst.type_id, list(flat))
            continue_block.instructions.insert(0, phi)
            replace_value_uses(module, call_inst.result_id, phi_id)
