"""Copy propagation: ``OpCopyObject`` elimination and trivial-phi removal.

Injected bug sites:

* ``copyprop-chain`` (crash): a chain of three or more ``OpCopyObject``
  instructions overflows the pass's (simulated) rewrite stack.
* ``copyprop-phi-compare`` (miscompile, the Figure 8a Mesa analogue): a phi
  whose incoming values are all comparison results of the same opcode is
  "simplified" to its first incoming value.  When the fuzzer's
  ``PropagateInstructionUp`` duplicates a loop condition into the header's
  predecessors, this wrongly reuses the pre-increment comparison and skips
  the last loop iteration.
"""

from __future__ import annotations

from repro.compilers.base import BugContext
from repro.compilers.passes.base import Pass
from repro.ir.module import Module
from repro.ir.opcodes import Op
from repro.ir.rewrite import UseIndex

#: Strict comparisons and the non-strict forms the injected bug relaxes them
#: to (wrongly — off by one element/iteration).
_RELAXABLE_COMPARES = {
    Op.SLessThan: Op.SLessThanEqual,
    Op.SGreaterThan: Op.SGreaterThanEqual,
    Op.FOrdLessThan: Op.FOrdLessThanEqual,
    Op.FOrdGreaterThan: Op.FOrdGreaterThanEqual,
}


class CopyPropagationPass(Pass):
    name = "copyprop"

    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        defs = module.def_map()
        uses = UseIndex(module)

        # Chain depths must be measured before any rewriting collapses them.
        for function in module.functions:
            for block in function.blocks:
                for inst in block.instructions:
                    if inst.opcode is Op.CopyObject:
                        self._check_chain_crash(defs, inst, bugs)

        for function in module.functions:
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.opcode is Op.CopyObject:
                        uses.replace(inst.result_id, int(inst.operands[0]))
                        block.instructions.remove(inst)
                        changed = True
                    elif inst.opcode is Op.Phi:
                        if self._simplify_phi(uses, block, inst, defs, bugs):
                            changed = True
        return changed

    def _check_chain_crash(self, defs, inst, bugs: BugContext) -> None:
        depth = 0
        current = inst
        while current is not None and current.opcode is Op.CopyObject:
            depth += 1
            current = defs.get(int(current.operands[0]))
        if depth >= 3:
            bugs.crash(
                "copyprop-chain",
                "copy_prop.cpp:77: rewrite stack overflow: copy chain of depth "
                f"{depth} rooted at %{inst.result_id}",
            )

    def _simplify_phi(
        self, uses: UseIndex, block, phi, defs, bugs: BugContext
    ) -> bool:
        pairs = phi.phi_pairs()
        values = [v for v, _ in pairs]

        # Correct simplification: all incoming values are the same id that is
        # a global constant (always available) — replace phi with it.
        if len(set(values)) == 1:
            source = defs.get(values[0])
            if source is not None and source.opcode in (
                Op.Constant,
                Op.ConstantTrue,
                Op.ConstantFalse,
                Op.ConstantComposite,
            ):
                uses.replace(phi.result_id, values[0])
                block.instructions.remove(phi)
                return True

        # Injected Mesa-style bug (Figure 8a analogue): a phi over same-opcode
        # *strict* comparisons gets its incoming comparisons "canonicalised"
        # to the non-strict form, shifting every loop built on it by one
        # iteration.  Structurally valid by construction; terminating because
        # the relaxed bound still decreases/advances.
        if len(values) >= 2:
            sources = [defs.get(v) for v in values]
            if (
                all(s is not None and s.opcode in _RELAXABLE_COMPARES for s in sources)
                and len({s.opcode for s in sources}) == 1
                and len(set(values)) >= 2
                and bugs.active("copyprop-phi-compare")
            ):
                seen_ids = set()
                for source in sources:
                    if id(source) not in seen_ids:
                        seen_ids.add(id(source))
                        source.opcode = _RELAXABLE_COMPARES[source.opcode]
                bugs.fire("copyprop-phi-compare")
                return True
        return False
