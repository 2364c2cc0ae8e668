"""Constant folding (scalar operations and conditional branches).

Injected bug sites:

* ``constfold-div-by-zero`` (crash): folding ``OpSDiv``/``OpSRem`` whose
  divisor is the constant 0 raises inside the compiler.  Valid programs only
  contain such instructions in dynamically dead code, which the fuzzer's
  dead-block transformations produce.
* ``constfold-overflow-saturate`` (miscompile): integer folds saturate at the
  i32 boundaries instead of wrapping.
* ``constfold-srem-floor`` (miscompile): ``OpSRem`` folds with Python floor
  semantics, wrong when exactly one operand is negative.
* ``constfold-select-swap`` (miscompile): ``OpSelect`` with a constant
  condition folds to the wrong arm.
* ``constfold-fneg`` (crash): folding ``OpFNegate`` of a float constant.
"""

from __future__ import annotations

from repro.compilers.base import BugContext
from repro.compilers.passes.base import Pass, module_constants
from repro.interp.values import f32, sdiv, srem, wrap_i32
from repro.ir import types as tys
from repro.ir.builder import ModuleBuilder
from repro.ir.module import Instruction, Module
from repro.ir.opcodes import Op
from repro.ir.rewrite import UseIndex, remove_phi_predecessor

_I32_MAX = 2**31 - 1
_I32_MIN = -(2**31)

_INT_FOLDS = {
    Op.IAdd: lambda a, b: wrap_i32(a + b),
    Op.ISub: lambda a, b: wrap_i32(a - b),
    Op.IMul: lambda a, b: wrap_i32(a * b),
    Op.SDiv: sdiv,
    Op.SRem: srem,
}
_FLOAT_FOLDS = {
    Op.FAdd: lambda a, b: f32(a + b),
    Op.FSub: lambda a, b: f32(a - b),
    Op.FMul: lambda a, b: f32(a * b),
}
_INT_COMPARE_FOLDS = {
    Op.IEqual: lambda a, b: a == b,
    Op.INotEqual: lambda a, b: a != b,
    Op.SLessThan: lambda a, b: a < b,
    Op.SLessThanEqual: lambda a, b: a <= b,
    Op.SGreaterThan: lambda a, b: a > b,
    Op.SGreaterThanEqual: lambda a, b: a >= b,
}
_LOGICAL_FOLDS = {
    Op.LogicalAnd: lambda a, b: a and b,
    Op.LogicalOr: lambda a, b: a or b,
}


class ConstantFoldingPass(Pass):
    name = "constfold"

    def run(self, module: Module, bugs: BugContext) -> bool:
        changed = False
        builder = ModuleBuilder.wrap(module)
        uses = UseIndex(module)
        constants = module_constants(module)
        globals_seen = len(module.global_insts)

        for function in module.functions:
            for block in list(function.blocks):
                for inst in list(block.instructions):
                    folded = self._fold_instruction(
                        module, builder, constants, inst, bugs
                    )
                    if folded is not None:
                        uses.replace(inst.result_id, folded)
                        block.instructions.remove(inst)
                        # Only an appended global can add a constant: a
                        # re-slotted one has just its id operands rewritten,
                        # and scalar constants have none.
                        if len(module.global_insts) != globals_seen:
                            constants = module_constants(module)
                            globals_seen = len(module.global_insts)
                        changed = True
            if self._fold_branches(module, function, constants, uses):
                changed = True
        return changed

    def _fold_instruction(
        self,
        module: Module,
        builder: ModuleBuilder,
        constants: dict[int, object],
        inst: Instruction,
        bugs: BugContext,
    ) -> int | None:
        op = inst.opcode

        def const(index: int):
            return constants.get(int(inst.operands[index]))

        if op in _INT_FOLDS:
            a, b = const(0), const(1)
            if not (isinstance(a, int) and isinstance(b, int)):
                return None
            if op in (Op.SDiv, Op.SRem) and b == 0:
                bugs.crash(
                    "constfold-div-by-zero",
                    "const_folding.cpp:214: integer division by zero while "
                    f"folding %{inst.result_id}",
                )
                return None  # correct compilers refuse to fold a trap
            value = _INT_FOLDS[op](a, b)
            if (
                op is Op.SRem
                and (a < 0) != (b < 0)
                and a % b != 0
                and bugs.active("constfold-srem-floor")
            ):
                value = wrap_i32(a % b)  # Python floor remainder: wrong sign
                bugs.fire("constfold-srem-floor")
            if op in (Op.IAdd, Op.ISub, Op.IMul):
                raw = {Op.IAdd: a + b, Op.ISub: a - b, Op.IMul: a * b}[op]
                if not _I32_MIN <= raw <= _I32_MAX and bugs.active(
                    "constfold-overflow-saturate"
                ):
                    value = _I32_MAX if raw > 0 else _I32_MIN
                    bugs.fire("constfold-overflow-saturate")
            return builder.int_const(value)

        if op in _FLOAT_FOLDS:
            a, b = const(0), const(1)
            if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
                return None
            if isinstance(a, bool) or isinstance(b, bool):
                return None
            return builder.float_const(_FLOAT_FOLDS[op](float(a), float(b)))

        if op is Op.FNegate:
            a = const(0)
            if isinstance(a, (int, float)) and not isinstance(a, bool):
                bugs.crash(
                    "constfold-fneg",
                    "const_folding.cpp:338: unhandled unary float op while "
                    f"folding %{inst.result_id} (OpFNegate)",
                )
                return builder.float_const(f32(-float(a)))
            return None

        if op is Op.SNegate:
            a = const(0)
            if isinstance(a, int) and not isinstance(a, bool):
                return builder.int_const(wrap_i32(-a))
            return None

        if op in _INT_COMPARE_FOLDS:
            a, b = const(0), const(1)
            if isinstance(a, int) and isinstance(b, int) and not (
                isinstance(a, bool) or isinstance(b, bool)
            ):
                return builder.bool_const(_INT_COMPARE_FOLDS[op](a, b))
            return None

        if op in _LOGICAL_FOLDS:
            a, b = const(0), const(1)
            if isinstance(a, bool) and isinstance(b, bool):
                return builder.bool_const(_LOGICAL_FOLDS[op](a, b))
            return None

        if op is Op.LogicalNot:
            a = const(0)
            if isinstance(a, bool):
                return builder.bool_const(not a)
            return None

        if op is Op.Select:
            cond = const(0)
            if isinstance(cond, bool):
                taken, other = (1, 2) if cond else (2, 1)
                if bugs.active("constfold-select-swap"):
                    bugs.fire("constfold-select-swap")
                    taken = other
                return int(inst.operands[taken])
            return None

        return None

    def _fold_branches(
        self,
        module: Module,
        function,
        constants: dict[int, object],
        uses: UseIndex,
    ) -> bool:
        """Turn constant conditional branches into plain branches."""
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
            uses.add(block.terminator)
            # The not-taken successor loses this predecessor edge, unless it
            # still has it through the taken path (impossible here: targets
            # differ and a block appears at most once per terminator side).
            not_taken_block = function.block(not_taken)
            if any(
                p != block.label_id for p in function.predecessors(not_taken)
            ):
                remove_phi_predecessor(not_taken_block, block.label_id)
            changed = True
        return changed
