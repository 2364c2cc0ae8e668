"""The passes' hot loops as they were before their rewrites: every
replacement walks the whole module (``replace_value_uses``), constant
folding recomputes ``module_constants`` after every fold, dead code
elimination rescans the module's used ids once per removal round and once
per block, and CFG simplification restarts its block scan after every merge
and recomputes ``function.predecessors`` for every candidate and crash
check.  They live here only as the references ``test_pass_equivalence.py``
compares the production passes against.
"""

from __future__ import annotations

from repro.compilers.base import BugContext
from repro.compilers.passes import (
    ConstantFoldingPass,
    CopyPropagationPass,
    DeadCodeEliminationPass,
    Mem2RegPass,
    Pass,
    SimplifyCfgPass,
)
from repro.compilers.passes.base import is_pure, module_constants, remove_unreachable_blocks
from repro.compilers.passes.copyprop import _RELAXABLE_COMPARES
from repro.ir.analysis.cfg import Cfg
from repro.ir.builder import ModuleBuilder
from repro.ir.module import Function, Instruction, Module
from repro.ir.opcodes import TRAPPING_OPS, Op, OperandKind
from repro.ir.rewrite import (
    remove_phi_predecessor,
    replace_value_uses,
    rewrite_phi_predecessor,
)


def reference_used_ids(inst: Instruction) -> list[int]:
    """``Instruction.used_ids`` through the generic signature walk."""
    ids = [
        operand
        for kind, operand in inst.operand_slots()
        if kind is OperandKind.ID
    ]
    if inst.type_id is not None:
        ids.append(inst.type_id)
    return [int(i) for i in ids]


class ReferenceConstantFolding(ConstantFoldingPass):
    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        builder = ModuleBuilder.wrap(module)
        constants = module_constants(module)

        for function in module.functions:
            for block in list(function.blocks):
                for inst in list(block.instructions):
                    folded = self._fold_instruction(
                        module, builder, constants, inst, bugs
                    )
                    if folded is not None:
                        replace_value_uses(module, inst.result_id, folded)
                        block.instructions.remove(inst)
                        constants = module_constants(module)
                        changed = True
            if self._reference_fold_branches(function, constants):
                changed = True
        return changed

    def _reference_fold_branches(self, function, constants: dict[int, object]) -> bool:
        changed = False
        for block in function.blocks:
            term = block.terminator
            if term is None or term.opcode is not Op.BranchConditional:
                continue
            cond = constants.get(int(term.operands[0]))
            if not isinstance(cond, bool):
                continue
            taken = int(term.operands[1] if cond else term.operands[2])
            not_taken = int(term.operands[2] if cond else term.operands[1])
            if taken == not_taken:
                continue
            block.terminator = Instruction(Op.Branch, None, None, [taken])
            not_taken_block = function.block(not_taken)
            if any(
                p != block.label_id for p in function.predecessors(not_taken)
            ):
                remove_phi_predecessor(not_taken_block, block.label_id)
            changed = True
        return changed


class ReferenceCopyPropagation(CopyPropagationPass):
    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        defs = module.def_map()

        for function in module.functions:
            for block in function.blocks:
                for inst in block.instructions:
                    if inst.opcode is Op.CopyObject:
                        self._check_chain_crash(defs, inst, bugs)

        for function in module.functions:
            cfg = Cfg.build(function)
            def_block: dict[int, int] = {}
            for fn_block in function.blocks:
                for fn_inst in fn_block.instructions:
                    if fn_inst.result_id is not None:
                        def_block[fn_inst.result_id] = fn_block.label_id
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.opcode is Op.CopyObject:
                        replace_value_uses(module, inst.result_id, int(inst.operands[0]))
                        block.instructions.remove(inst)
                        changed = True
                    elif inst.opcode is Op.Phi:
                        if self._reference_simplify_phi(
                            module, block, inst, defs, cfg, def_block, bugs
                        ):
                            changed = True
        return changed

    def _reference_simplify_phi(
        self, module: Module, block, phi, defs, cfg, def_block, bugs: BugContext
    ) -> bool:
        pairs = phi.phi_pairs()
        values = [v for v, _ in pairs]

        if len(set(values)) == 1:
            source = defs.get(values[0])
            if source is not None and source.opcode in (
                Op.Constant,
                Op.ConstantTrue,
                Op.ConstantFalse,
                Op.ConstantComposite,
            ):
                replace_value_uses(module, phi.result_id, values[0])
                block.instructions.remove(phi)
                return True

        if bugs.active("copyprop-phi-compare") and len(values) >= 2:
            sources = [defs.get(v) for v in values]
            if (
                all(s is not None and s.opcode in _RELAXABLE_COMPARES for s in sources)
                and len({s.opcode for s in sources}) == 1
                and len(set(values)) >= 2
            ):
                seen_ids = set()
                for source in sources:
                    if id(source) not in seen_ids:
                        seen_ids.add(id(source))
                        source.opcode = _RELAXABLE_COMPARES[source.opcode]
                bugs.fire("copyprop-phi-compare")
                return True
        return False


class ReferenceMem2Reg(Mem2RegPass):
    def _rename(self, uses, function, cfg, block, by_var, stacks) -> None:
        module = uses.module
        pushed: dict[int, int] = {}

        def push(var_id: int, value_id: int) -> None:
            stacks[var_id].append(value_id)
            pushed[var_id] = pushed.get(var_id, 0) + 1

        for state in by_var.values():
            phi = state.phi_blocks.get(block.label_id)
            if phi is not None:
                push(state.variable_id, phi.result_id)

        for inst in list(block.instructions):
            if inst.opcode is Op.Load and int(inst.operands[0]) in by_var:
                var_id = int(inst.operands[0])
                replace_value_uses(module, inst.result_id, stacks[var_id][-1])
                block.instructions.remove(inst)
            elif inst.opcode is Op.Store and int(inst.operands[0]) in by_var:
                push(int(inst.operands[0]), int(inst.operands[1]))
                block.instructions.remove(inst)

        for succ_label in dict.fromkeys(block.successors()):
            for state in by_var.values():
                phi = state.phi_blocks.get(succ_label)
                if phi is None:
                    continue
                phi.operands.extend([stacks[state.variable_id][-1], block.label_id])

        for child_label, parent in cfg.idom.items():
            if parent == block.label_id and child_label != block.label_id:
                self._rename(
                    uses, function, cfg, function.block(child_label), by_var, stacks
                )

        for var_id, count in pushed.items():
            del stacks[var_id][-count:]


class ReferenceDeadCodeElimination(DeadCodeEliminationPass):
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
        if self._reference_remove_unused_pure(module, bugs):
            changed = True
        if self._reference_remove_dead_local_stores(module, bugs):
            changed = True
        if self._remove_uncalled_functions(module):
            changed = True
        return changed

    def _reference_remove_unused_pure(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        while True:
            used: set[int] = set()
            for inst in module.all_instructions():
                used.update(reference_used_ids(inst))
            removed_any = False
            for function in module.functions:
                for block in function.blocks:
                    for inst in list(block.instructions):
                        if inst.result_id is None or inst.result_id in used:
                            continue
                        if inst.opcode in TRAPPING_OPS:
                            pass
                        if is_pure(inst) and inst.opcode is not Op.Phi:
                            block.instructions.remove(inst)
                            removed_any = True
                        elif inst.opcode is Op.Phi:
                            block.instructions.remove(inst)
                            removed_any = True
            if not removed_any:
                return changed
            changed = True

    def _reference_remove_dead_local_stores(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        buggy = bugs.active("dce-store-accesschain")
        for function in module.functions:
            local_vars = {
                inst.result_id
                for block in function.blocks
                for inst in block.instructions
                if inst.opcode is Op.Variable
            }
            if not local_vars:
                continue
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
                        continue
                    elif inst.opcode is Op.Store:
                        continue
                    else:
                        for used in reference_used_ids(inst):
                            if used in local_vars:
                                live.add(used)
                            elif used in root:
                                live.add(root[used])
            if not buggy:
                live |= chain_loaded
            dead = local_vars - live

            def _store_root(inst) -> int | None:
                pointer = int(inst.operands[0])
                return root.get(pointer)

            if not dead:
                continue
            if buggy and (dead & chain_loaded):
                has_store = any(
                    inst.opcode is Op.Store and _store_root(inst) in (dead & chain_loaded)
                    for block in function.blocks
                    for inst in block.all_instructions()
                )
                if has_store:
                    bugs.fire("dce-store-accesschain")
            for block in function.blocks:
                before = len(block.instructions)
                block.instructions = [
                    inst
                    for inst in block.instructions
                    if not (inst.opcode is Op.Store and _store_root(inst) in dead)
                ]
                if len(block.instructions) != before:
                    changed = True
            for block in function.blocks:
                before = len(block.instructions)
                referenced: set[int] = set()
                for inst in module.all_instructions():
                    referenced.update(reference_used_ids(inst))
                block.instructions = [
                    inst
                    for inst in block.instructions
                    if not (
                        inst.opcode is Op.Variable
                        and inst.result_id in dead
                        and inst.result_id not in referenced
                    )
                ]
                if len(block.instructions) != before:
                    changed = True
        return changed


class ReferenceSimplifyCfg(SimplifyCfgPass):
    """One merge per scan from the first block, with ``function.predecessors``
    recomputed for every candidate and every crash check."""

    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        for function in module.functions:
            self._reference_crash_checks(function, bugs)
            if self._drop_kill_edges(function, bugs):
                changed = True
            while self._merge_one_chain(function, bugs):
                changed = True
        return changed

    def _reference_crash_checks(self, function: Function, bugs: BugContext) -> None:
        for block in function.blocks:
            term = block.terminator
            if (
                term is not None
                and term.opcode is Op.BranchConditional
                and int(term.operands[1]) == int(term.operands[2])
            ):
                bugs.crash(
                    "simplifycfg-same-target",
                    "block_merge.cpp:131: Assertion `true_block != false_block' "
                    f"failed for %{block.label_id}",
                )
            preds = function.predecessors(block.label_id)
            if len(preds) >= 4:
                bugs.crash(
                    "simplifycfg-many-preds",
                    "cfg_cleanup.cpp:59: too many predecessors "
                    f"({len(preds)}) for block %{block.label_id}",
                )

    def _merge_one_chain(self, function: Function, bugs: BugContext) -> bool:
        for block in function.blocks:
            term = block.terminator
            if term is None or term.opcode is not Op.Branch:
                continue
            succ_label = int(term.operands[0])
            if succ_label == block.label_id:
                continue
            succ = function.block(succ_label)
            if succ is function.entry_block():
                continue
            preds = function.predecessors(succ_label)
            if preds != [block.label_id]:
                continue
            if succ.phis():
                continue
            if any(inst.opcode is Op.Variable for inst in succ.instructions):
                continue
            block.instructions.extend(succ.instructions)
            block.terminator = succ.terminator
            function.blocks.remove(succ)
            if any(
                function.block(next_label).phis()
                for next_label in block.successors()
            ) and bugs.active("simplifycfg-stale-phi"):
                bugs.fire("simplifycfg-stale-phi")
                return True
            for next_label in block.successors():
                rewrite_phi_predecessor(
                    function.block(next_label), succ_label, block.label_id
                )
            return True
        return False


_REFERENCES: dict[type, type] = {
    ConstantFoldingPass: ReferenceConstantFolding,
    CopyPropagationPass: ReferenceCopyPropagation,
    Mem2RegPass: ReferenceMem2Reg,
    DeadCodeEliminationPass: ReferenceDeadCodeElimination,
    SimplifyCfgPass: ReferenceSimplifyCfg,
}


def reference_pass(opt_pass: Pass) -> Pass:
    """The reference counterpart of *opt_pass* (itself when its hot loops
    were not rewritten)."""
    reference = _REFERENCES.get(type(opt_pass))
    return reference() if reference is not None else opt_pass
