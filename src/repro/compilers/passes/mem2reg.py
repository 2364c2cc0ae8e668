"""Promotion of scalar Function-storage variables to SSA values (mem2reg).

The classic Cytron et al. algorithm: phis are placed at the iterated
dominance frontier of a variable's store blocks, then a dominator-tree walk
renames loads and stores.  Only scalar variables whose every use is a direct
``OpLoad``/``OpStore`` are promoted; anything touched by access chains or
calls keeps its memory form.

Injected bug sites:

* ``mem2reg-many-preds`` (crash): phi insertion at a join block with three or
  more predecessors.
* ``mem2reg-phi-order`` (miscompile, a Pixel-5-style block-order sensitivity):
  when the function's blocks are *not* laid out in reverse postorder — e.g.
  after the fuzzer's ``MoveBlockDown`` — the pass pairs phi incoming values
  with the wrong predecessors (it trusts layout order instead of edge order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compilers.base import BugContext
from repro.compilers.passes.base import Pass
from repro.ir import types as tys
from repro.ir.analysis.cfg import Cfg
from repro.ir.builder import ModuleBuilder
from repro.ir.module import Block, Function, Instruction, Module
from repro.ir.opcodes import Op
from repro.ir.rewrite import UseIndex


@dataclass
class _PromotionState:
    variable_id: int
    pointee: tys.Type
    pointee_type_id: int
    initial_value_id: int
    phi_blocks: dict[int, Instruction] = field(default_factory=dict)


class Mem2RegPass(Pass):
    name = "mem2reg"

    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        builder = ModuleBuilder.wrap(module)
        uses = UseIndex(module)
        for function in module.functions:
            if not function.blocks:
                continue
            cfg = Cfg.build(function)
            if len(cfg.reachable) != len(function.blocks):
                continue  # conservatively skip functions with dead blocks
            if self._promote_function(module, builder, uses, function, cfg, bugs):
                changed = True
        return changed

    # -- candidate discovery --------------------------------------------------

    def _promotable_variables(self, module: Module, function: Function) -> list[Instruction]:
        candidates: dict[int, Instruction] = {}
        types = module.type_table()
        for inst in function.entry_block().instructions:
            if inst.opcode is not Op.Variable:
                continue
            ptr_ty = types.get(inst.type_id)
            if isinstance(ptr_ty, tys.PointerType) and ptr_ty.pointee.is_scalar():
                candidates[inst.result_id] = inst
        if not candidates:
            return []
        for block in function.blocks:
            for inst in block.all_instructions():
                if inst.opcode is Op.Load:
                    continue
                if inst.opcode is Op.Store:
                    # Storing *into* a candidate is fine; storing a candidate's
                    # pointer as the value would disqualify it (cannot happen
                    # with our type rules, but keep the check cheap and safe).
                    if int(inst.operands[1]) in candidates:
                        candidates.pop(int(inst.operands[1]))
                    continue
                for used in inst.used_ids():
                    candidates.pop(used, None)
        return list(candidates.values())

    # -- promotion -------------------------------------------------------------

    def _promote_function(
        self,
        module: Module,
        builder: ModuleBuilder,
        uses: UseIndex,
        function: Function,
        cfg: Cfg,
        bugs: BugContext,
    ) -> bool:
        variables = self._promotable_variables(module, function)
        if not variables:
            return False

        frontiers = cfg.dominance_frontiers()
        layout_is_rpo = [b.label_id for b in function.blocks] == cfg.rpo
        states: list[_PromotionState] = []
        for var_inst in variables:
            state = self._make_state(module, builder, var_inst)
            self._place_phis(module, function, cfg, frontiers, state, bugs)
            states.append(state)

        stacks = {s.variable_id: [s.initial_value_id] for s in states}
        by_var = {s.variable_id: s for s in states}
        self._rename(uses, function, cfg, function.entry_block(), by_var, stacks)

        # Injected layout-sensitivity: with a non-RPO layout, the pass pairs
        # phi values with predecessors by layout position instead of edge,
        # which swaps the two slots of every two-predecessor phi.
        if not layout_is_rpo and bugs.active("mem2reg-phi-order"):
            def_block: dict[int, int] = {}
            for fn_block in function.blocks:
                for fn_inst in fn_block.instructions:
                    if fn_inst.result_id is not None:
                        def_block[fn_inst.result_id] = fn_block.label_id
            for other in states:
                for other_label, other_phi in other.phi_blocks.items():
                    def_block[other_phi.result_id] = other_label

            def swappable(phi: Instruction, label: int) -> bool:
                # Only swap when both values dominate the join, so the wrong
                # pairing stays structurally valid (a miscompilation, not
                # invalid IR — drivers corrupt values, they don't re-validate).
                for value_id in (int(phi.operands[0]), int(phi.operands[2])):
                    block_of_def = def_block.get(value_id)
                    if block_of_def is not None and not cfg.strictly_dominates(
                        block_of_def, label
                    ):
                        return False
                return True

            for state in states:
                for label, phi in state.phi_blocks.items():
                    if (
                        len(phi.operands) == 4
                        and phi.operands[0] != phi.operands[2]
                        and swappable(phi, label)
                    ):
                        phi.operands[0], phi.operands[2] = (
                            phi.operands[2],
                            phi.operands[0],
                        )
                        bugs.fire("mem2reg-phi-order")

        # Install the phis at the head of their blocks and drop the variables.
        for state in states:
            for label, phi in state.phi_blocks.items():
                function.block(label).instructions.insert(0, phi)
                uses.add(phi)
        promoted = {s.variable_id for s in states}
        entry = function.entry_block()
        entry.instructions = [
            inst for inst in entry.instructions if inst.result_id not in promoted
        ]
        return True

    def _make_state(
        self, module: Module, builder: ModuleBuilder, var_inst: Instruction
    ) -> _PromotionState:
        types = module.type_table()
        ptr_ty = types[var_inst.type_id]
        assert isinstance(ptr_ty, tys.PointerType)
        pointee = ptr_ty.pointee
        if len(var_inst.operands) > 1:
            initial = int(var_inst.operands[1])
        elif isinstance(pointee, tys.BoolType):
            initial = builder.bool_const(False)
        elif isinstance(pointee, tys.IntType):
            initial = builder.int_const(0)
        else:
            initial = builder.float_const(0.0)
        return _PromotionState(
            variable_id=var_inst.result_id,
            pointee=pointee,
            pointee_type_id=builder.type_id(pointee),
            initial_value_id=initial,
        )

    def _place_phis(
        self,
        module: Module,
        function: Function,
        cfg: Cfg,
        frontiers: dict[int, set[int]],
        state: _PromotionState,
        bugs: BugContext,
    ) -> None:
        def_blocks = {function.entry_block().label_id}
        for block in function.blocks:
            for inst in block.instructions:
                if (
                    inst.opcode is Op.Store
                    and int(inst.operands[0]) == state.variable_id
                ):
                    def_blocks.add(block.label_id)

        worklist = list(def_blocks)
        placed: set[int] = set()
        while worklist:
            label = worklist.pop()
            for frontier_label in frontiers.get(label, ()):
                if frontier_label in placed:
                    continue
                placed.add(frontier_label)
                preds = function.predecessors(frontier_label)
                if len(preds) >= 3:
                    bugs.crash(
                        "mem2reg-many-preds",
                        "local_ssa_elim.cpp:501: Assertion `preds.size() <= 2' "
                        f"failed inserting phi at %{frontier_label}",
                    )
                phi = Instruction(
                    Op.Phi, module.fresh_id(), state.pointee_type_id, []
                )
                state.phi_blocks[frontier_label] = phi
                if frontier_label not in def_blocks:
                    worklist.append(frontier_label)

    def _rename(
        self,
        uses: UseIndex,
        function: Function,
        cfg: Cfg,
        block: Block,
        by_var: dict[int, _PromotionState],
        stacks: dict[int, list[int]],
    ) -> None:
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
                uses.replace(inst.result_id, stacks[var_id][-1])
                block.instructions.remove(inst)
            elif inst.opcode is Op.Store and int(inst.operands[0]) in by_var:
                push(int(inst.operands[0]), int(inst.operands[1]))
                block.instructions.remove(inst)

        # dict.fromkeys dedupes: a same-target conditional branch (e.g. after
        # branch obfuscation) lists its successor twice but contributes one
        # predecessor edge.
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
