"""Dead-code elimination: unused pure instructions, unreachable blocks,
dead local stores/variables, and uncalled functions.

Injected bug sites:

* ``dce-unreachable-op`` (crash): the pass asserts that no ``OpUnreachable``
  exists anywhere in the module.
* ``dce-kill-unreachable`` (crash, hosted in
  :func:`repro.compilers.passes.base.remove_unreachable_blocks`): dead code
  containing ``OpKill``.
* ``dce-store-accesschain`` (miscompile): liveness of a local variable only
  counts *direct* loads, so composites read through access chains lose their
  stores.
"""

from __future__ import annotations

from collections import Counter

from repro.compilers.base import BugContext
from repro.compilers.passes.base import Pass, is_pure, remove_unreachable_blocks
from repro.ir.module import Block, Instruction, Module
from repro.ir.opcodes import Op


class DeadCodeEliminationPass(Pass):
    name = "dce"

    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        for function in module.functions:
            for block in function.blocks:
                term = block.terminator
                if term is not None and term.opcode is Op.Unreachable:
                    bugs.crash(
                        "dce-unreachable-op",
                        "aggressive_dce.cpp:412: Assertion `inst->opcode() != "
                        f"OpUnreachable' failed in block %{block.label_id}",
                    )
            if remove_unreachable_blocks(function, bugs):
                changed = True
        # How often each id is used module-wide; both removal steps keep it
        # current as they delete instructions.
        uses = Counter(
            used for inst in module.all_instructions() for used in inst.used_ids()
        )
        if self._remove_unused_pure(module, uses):
            changed = True
        if self._remove_dead_local_stores(module, bugs, uses):
            changed = True
        if self._remove_uncalled_functions(module):
            changed = True
        return changed

    def _remove_unused_pure(self, module: Module, uses: Counter[int]) -> bool:
        """Delete pure body instructions whose result nothing uses, until
        none is left.  A use-count worklist reaches the same fixpoint as
        rescanning after every round: deleting an unused instruction only
        lowers counts.  A phi cycle keeps itself alive.

        Trapping instructions go too.  That is unsound in general, but here
        traps are UB and UB-free programs never trap, mirroring how real
        compilers treat UB."""
        definers: dict[int, list[tuple[Block, Instruction]]] = {}
        for function in module.functions:
            for block in function.blocks:
                for inst in block.instructions:
                    if inst.result_id is not None and is_pure(inst):
                        definers.setdefault(inst.result_id, []).append((block, inst))
        worklist = [result for result in definers if not uses[result]]
        removed: set[int] = set()
        edited: dict[int, Block] = {}
        while worklist:
            for block, inst in definers.pop(worklist.pop(), ()):
                removed.add(id(inst))
                edited[id(block)] = block
                for used in inst.used_ids():
                    uses[used] -= 1
                    if not uses[used] and used in definers:
                        worklist.append(used)
        for block in edited.values():
            block.instructions = [
                inst for inst in block.instructions if id(inst) not in removed
            ]
        return bool(removed)

    def _remove_dead_local_stores(
        self, module: Module, bugs: BugContext, uses: Counter[int]
    ) -> bool:
        """Remove stores to Function-storage variables that are never loaded.

        A variable is conservatively live when its pointer escapes through an
        access chain or a call — unless the ``dce-store-accesschain`` bug is
        active, in which case access-chain loads are (wrongly) ignored.  The
        bug is consulted only where that changes something: a variable
        loaded only through access chains, otherwise dead, that is stored to.
        """
        changed = False
        for function in module.functions:
            local_vars = {
                inst.result_id
                for block in function.blocks
                for inst in block.instructions
                if inst.opcode is Op.Variable
            }
            if not local_vars:
                continue
            # Chase access chains back to their root variable so stores and
            # loads through chains are attributed to the variable itself.
            root: dict[int, int] = {v: v for v in local_vars if v is not None}
            progressed = True
            while progressed:
                progressed = False
                for block in function.blocks:
                    for inst in block.instructions:
                        if (
                            inst.opcode is Op.AccessChain
                            and int(inst.operands[0]) in root
                            and inst.result_id not in root
                        ):
                            root[inst.result_id] = root[int(inst.operands[0])]
                            progressed = True

            live: set[int] = set()
            chain_loaded: set[int] = set()
            for block in function.blocks:
                for inst in block.all_instructions():
                    if inst.opcode is Op.Load:
                        pointer = int(inst.operands[0])
                        if pointer in local_vars:
                            live.add(pointer)
                        elif pointer in root:
                            chain_loaded.add(root[pointer])
                    elif inst.opcode is Op.AccessChain:
                        continue  # handled through the root map
                    elif inst.opcode is Op.Store:
                        continue
                    else:
                        for used in inst.used_ids():
                            if used in local_vars:
                                live.add(used)
                            elif used in root:
                                live.add(root[used])  # pointer escapes
            dead = local_vars - live

            def _store_root(inst) -> int | None:
                pointer = int(inst.operands[0])
                return root.get(pointer)

            # Without stores to drop, wrongly killing a chain-loaded variable
            # changes nothing (its access chains keep it referenced).
            chain_dead = dead & chain_loaded
            if (
                chain_dead
                and any(
                    inst.opcode is Op.Store and _store_root(inst) in chain_dead
                    for block in function.blocks
                    for inst in block.all_instructions()
                )
                and bugs.active("dce-store-accesschain")
            ):
                bugs.fire("dce-store-accesschain")
            else:
                dead -= chain_loaded
            if not dead:
                continue
            for block in function.blocks:
                if _drop(
                    block,
                    lambda inst: inst.opcode is Op.Store and _store_root(inst) in dead,
                    uses,
                ):
                    changed = True
            # Remove the now-unreferenced variables themselves.
            for block in function.blocks:
                if _drop(
                    block,
                    lambda inst: inst.opcode is Op.Variable
                    and inst.result_id in dead
                    and not uses[inst.result_id],
                    uses,
                ):
                    changed = True
        return changed

    def _remove_uncalled_functions(self, module: Module) -> bool:
        called: set[int] = set()
        for inst in module.all_instructions():
            if inst.opcode is Op.FunctionCall:
                called.add(int(inst.operands[0]))
        keep = []
        changed = False
        for function in module.functions:
            if function.result_id == module.entry_point_id or function.result_id in called:
                keep.append(function)
            else:
                changed = True
        module.functions = keep
        return changed


def _drop(block: Block, doomed, uses: Counter[int]) -> bool:
    """Delete the body instructions of *block* that *doomed* picks, then
    take their uses off *uses* (so *doomed* sees the counts from before the
    block's deletions).  Returns True when any was deleted."""
    kept: list[Instruction] = []
    dropped: list[Instruction] = []
    for inst in block.instructions:
        (dropped if doomed(inst) else kept).append(inst)
    if not dropped:
        return False
    block.instructions = kept
    for inst in dropped:
        uses.subtract(inst.used_ids())
    return True
