"""Function inlining.

Inlines calls to functions marked ``Inline`` and to small functions, never
recursive ones and never ``DontInline`` ones — except where injected bugs say
otherwise.

Injected bug sites:

* ``inline-dontinline`` (crash, the Figure 3 SwiftShader analogue): the mere
  *presence* of a called ``DontInline`` function trips an assertion while the
  pass scans call sites.  The paper's one-instruction delta — adding
  ``DontInline`` to a function — reproduces against this bug.
* ``inline-kill`` (crash): inlining a callee that contains ``OpKill``.
* ``inline-arg-reuse`` (miscompile): every parameter use is bound to the
  *first* call argument when the callee has two or more parameters.
* ``inline-recursive`` (crash): a directly recursive function is present.
"""

from __future__ import annotations

from repro.compilers.base import BugContext
from repro.compilers.passes.base import Pass
from repro.ir.module import Function, Module
from repro.ir.opcodes import (
    FUNCTION_CONTROL_DONT_INLINE,
    FUNCTION_CONTROL_INLINE,
    Op,
)
from repro.ir.rewrite import inline_call, make_inline_plan

_SMALL_FUNCTION_LIMIT = 40


class InlinePass(Pass):
    name = "inline"

    def __init__(self, max_rounds: int = 4) -> None:
        self.max_rounds = max_rounds

    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        for _ in range(self.max_rounds):
            if not self._inline_one(module, bugs):
                break
            changed = True
        return changed

    def _directly_recursive(self, function: Function) -> bool:
        for block in function.blocks:
            for inst in block.instructions:
                if (
                    inst.opcode is Op.FunctionCall
                    and int(inst.operands[0]) == function.result_id
                ):
                    return True
        return False

    def _contains_kill(self, function: Function) -> bool:
        return any(
            block.terminator is not None and block.terminator.opcode is Op.Kill
            for block in function.blocks
        )

    def _should_inline(self, module: Module, callee: Function, bugs: BugContext) -> bool:
        if self._directly_recursive(callee):
            bugs.crash(
                "inline-recursive",
                "inline_pass.cpp:233: infinite inlining detected for function "
                f"%{callee.result_id}",
            )
            return False
        if callee.control == FUNCTION_CONTROL_DONT_INLINE:
            bugs.crash(
                "inline-dontinline",
                "inline_exhaustive.cpp:96: Assertion `!func->HasDontInline()' "
                f"failed for callee %{callee.result_id}",
            )
            return False
        if self._contains_kill(callee):
            bugs.crash(
                "inline-kill",
                "inline_pass.cpp:310: cannot inline OpKill from callee "
                f"%{callee.result_id}",
            )
            return False
        if callee.control == FUNCTION_CONTROL_INLINE:
            return True
        size = sum(1 for _ in callee.all_instructions())
        return size <= _SMALL_FUNCTION_LIMIT

    def _inline_one(self, module: Module, bugs: BugContext) -> bool:
        for caller in module.functions:
            for block in caller.blocks:
                for inst in block.instructions:
                    if inst.opcode is not Op.FunctionCall:
                        continue
                    callee_id = int(inst.operands[0])
                    if not module.has_function(callee_id):
                        continue
                    callee = module.get_function(callee_id)
                    if callee is caller:
                        continue
                    if not self._should_inline(module, callee, bugs):
                        continue
                    buggy_binding = (
                        len(callee.params) >= 2
                        # Same-typed parameters only: the wrong binding must
                        # stay type-correct (miscompile, not invalid IR).
                        and len({p.type_id for p in callee.params}) == 1
                        and bugs.active("inline-arg-reuse")
                    )
                    if buggy_binding:
                        bugs.fire("inline-arg-reuse")
                    plan = make_inline_plan(module, callee)
                    inline_call(
                        module,
                        caller,
                        block,
                        inst,
                        plan,
                        buggy_first_arg_binding=buggy_binding,
                    )
                    return True
        return False
