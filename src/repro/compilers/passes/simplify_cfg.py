"""CFG simplification: block merging and empty-block threading.

Injected bug sites:

* ``simplifycfg-same-target`` (crash): an ``OpBranchConditional`` whose two
  targets are the same block.
* ``simplifycfg-stale-phi`` (invalid IR): after merging a block into its
  predecessor, phis in the successors keep naming the *merged-away* block —
  the pass "forgets" the phi fix-up and emits invalid IR (the paper's
  "spirv-opt emits illegal SPIR-V" bug class).
* ``simplifycfg-kill-drop`` (miscompile): blocks terminated by ``OpKill``
  are treated as cold and their incoming conditional edges are redirected to
  the other side, silently un-killing fragments.
* ``simplifycfg-many-preds`` (crash): edge cleanup gives up on blocks with
  four or more predecessors.
"""

from __future__ import annotations

from repro.compilers.base import BugContext
from repro.compilers.passes.base import Pass
from repro.ir.module import Block, Function, Instruction, Module
from repro.ir.opcodes import Op
from repro.ir.rewrite import remove_phi_predecessor, rewrite_phi_predecessor


class SimplifyCfgPass(Pass):
    name = "simplifycfg"

    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        for function in module.functions:
            self._crash_checks(function, bugs)
            if self._drop_kill_edges(function, bugs):
                changed = True
            while self._merge_one_chain(module, function, bugs):
                changed = True
        return changed

    def _crash_checks(self, function: Function, bugs: BugContext) -> None:
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

    def _drop_kill_edges(self, function: Function, bugs: BugContext) -> bool:
        """Injected miscompilation: redirect conditional edges away from
        reachable OpKill blocks."""
        kill_blocks = {
            b.label_id
            for b in function.blocks
            if b.terminator is not None
            and b.terminator.opcode is Op.Kill
            and not b.instructions
        }
        if not kill_blocks or not bugs.active("simplifycfg-kill-drop"):
            return False
        changed = False
        for block in function.blocks:
            term = block.terminator
            if term is None or term.opcode is not Op.BranchConditional:
                continue
            true_t, false_t = int(term.operands[1]), int(term.operands[2])
            if true_t in kill_blocks and false_t not in kill_blocks:
                block.terminator = Instruction(Op.Branch, None, None, [false_t])
                bugs.fire("simplifycfg-kill-drop")
                changed = True
            elif false_t in kill_blocks and true_t not in kill_blocks:
                block.terminator = Instruction(Op.Branch, None, None, [true_t])
                bugs.fire("simplifycfg-kill-drop")
                changed = True
        return changed

    def _merge_one_chain(self, module: Module, function: Function, bugs: BugContext) -> bool:
        """Merge some block with its unique successor when that successor has
        no other predecessors and no phis.  Returns True when a merge happened.
        """
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
            # Forgetting the phi fix-up leaves successors' phis naming the
            # merged-away block: invalid IR escapes the pass.
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
