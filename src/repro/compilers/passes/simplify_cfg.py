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
            preds = _predecessor_sets(function)
            self._crash_checks(function, preds, bugs)
            if self._drop_kill_edges(function, bugs):
                changed = True
                preds = _predecessor_sets(function)
            if self._merge_chains(function, preds, bugs):
                changed = True
        return changed

    def _crash_checks(
        self, function: Function, preds: dict[int, set[int]], bugs: BugContext
    ) -> None:
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
            count = len(preds[block.label_id])
            if count >= 4:
                bugs.crash(
                    "simplifycfg-many-preds",
                    "cfg_cleanup.cpp:59: too many predecessors "
                    f"({count}) for block %{block.label_id}",
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

    def _merge_chains(
        self, function: Function, preds: dict[int, set[int]], bugs: BugContext
    ) -> bool:
        """Merge blocks into their predecessor while some block's unique
        successor has no other predecessors and no phis, always taking the
        first such block in layout order.  A merge never makes an earlier
        block a candidate, so the scan resumes at the merged block (which
        may absorb its new successor next) instead of restarting; *preds*
        is kept up to date as blocks merge.
        """
        blocks = function.blocks
        by_label = {block.label_id: block for block in blocks}

        def block_at(label: int) -> Block:
            found = by_label.get(label)
            return found if found is not None else function.block(label)

        changed = False
        index = 0
        while index < len(blocks):
            block = blocks[index]
            term = block.terminator
            if term is None or term.opcode is not Op.Branch:
                index += 1
                continue
            succ_label = int(term.operands[0])
            if succ_label == block.label_id:
                index += 1
                continue
            succ = block_at(succ_label)
            if (
                succ is blocks[0]
                or preds[succ_label] != {block.label_id}
                or succ.phis()
                or any(inst.opcode is Op.Variable for inst in succ.instructions)
            ):
                index += 1
                continue
            block.instructions.extend(succ.instructions)
            block.terminator = succ.terminator
            succ_index = blocks.index(succ)
            del blocks[succ_index]
            if succ_index < index:
                index -= 1
            del by_label[succ_label], preds[succ_label]
            for next_label in set(block.successors()):
                next_preds = preds.setdefault(next_label, set())
                next_preds.discard(succ_label)
                next_preds.add(block.label_id)
            changed = True
            # Forgetting the phi fix-up leaves successors' phis naming the
            # merged-away block: invalid IR escapes the pass.
            if any(
                block_at(next_label).phis() for next_label in block.successors()
            ) and bugs.active("simplifycfg-stale-phi"):
                bugs.fire("simplifycfg-stale-phi")
                continue
            for next_label in block.successors():
                rewrite_phi_predecessor(
                    block_at(next_label), succ_label, block.label_id
                )
        return changed


def _predecessor_sets(function: Function) -> dict[int, set[int]]:
    """The labels of the blocks branching to each block (and to each label a
    terminator names)."""
    preds: dict[int, set[int]] = {block.label_id: set() for block in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            preds.setdefault(succ, set()).add(block.label_id)
    return preds
