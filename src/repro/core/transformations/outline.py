"""OutlineFunction: extract a run of instructions into a fresh function
(spirv-fuzz's ``TransformationOutlineFunction``, in single-block form).

The region is identified by its first and last instruction *ids*
(independence principle).  Values the region uses but does not define become
parameters (globals and constants are referenced directly); at most one
region-defined value may be used after the region — it becomes the return
value, and the replacing ``OpFunctionCall`` *reuses its id*, so downstream
uses and facts are untouched.  All ids defined inside the region are remapped
to fresh ids in the outlined body via an explicit, recorded mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import Context
from repro.core.transformation import Transformation
from repro.ir import types as tys
from repro.ir.module import Block, Function, Instruction
from repro.ir.opcodes import FUNCTION_CONTROL_NONE, Op


@dataclass
class OutlineFunction(Transformation):
    """Fields:

    * ``first_id`` / ``last_id`` — result ids delimiting the region (both
      inclusive; every instruction in between must produce a result or be a
      store).
    * ``id_map`` — region-defined id → fresh id used inside the new function.
    * ``param_map`` — outside-defined (function-local) id → fresh parameter id.
    * ``fresh_function_id`` / ``fresh_label_id`` — the new function and its
      entry block.
    * ``fresh_function_type_id`` — used when the needed ``OpTypeFunction``
      does not already exist.
    """

    type_name = "OutlineFunction"

    first_id: int
    last_id: int
    fresh_function_id: int
    fresh_label_id: int
    fresh_function_type_id: int
    id_map: dict[int, int] = field(default_factory=dict)
    param_map: dict[int, int] = field(default_factory=dict)

    # -- region discovery --------------------------------------------------------

    def _region(self, ctx: Context):
        """(function, block, start, end) of the inclusive instruction span."""
        first = ctx.position(self.first_id)
        last = ctx.position(self.last_id)
        if first is None or last is None or last[1] is not first[1]:
            return None
        function, block, start = first
        end = last[2]
        if start > end:
            return None
        return function, block, start, end

    def _analyse(self, ctx: Context):
        """Classify region defs/uses; None when the region is not outlineable."""
        region = self._region(ctx)
        if region is None:
            return None
        function, block, start, end = region
        instructions = block.instructions[start : end + 1]
        for inst in instructions:
            if inst.opcode in (Op.Phi, Op.Variable):
                return None

        defined = {
            inst.result_id for inst in instructions if inst.result_id is not None
        }
        global_ids = {
            inst.result_id
            for inst in ctx.module.global_insts
            if inst.result_id is not None
        }
        global_ids.update(f.result_id for f in ctx.module.functions)

        incoming: list[int] = []
        for inst in instructions:
            for used in inst.used_ids():
                if used in defined or used in global_ids or used == inst.type_id:
                    continue
                used_inst = ctx.defs().get(used)
                if used_inst is None:
                    return None
                if used_inst.type_id is None:
                    return None  # labels etc. cannot be parameters
                if used not in incoming:
                    incoming.append(used)

        # Region-defined ids used after the region (same block tail, other
        # blocks, or phis anywhere): at most one, and never a pointer (our IR
        # has no pointer-valued returns from Function storage).
        escaping: list[int] = []
        for other_fn in ctx.module.functions:
            for other_block in other_fn.blocks:
                for inst in other_block.all_instructions():
                    if other_block is block and inst in instructions:
                        continue
                    for used in inst.used_ids():
                        if used in defined and used not in escaping:
                            escaping.append(used)
        # Exactly one escaping value: it becomes the return value and the
        # replacing call reuses its id.  (Zero-escape regions would need an
        # extra fresh id for a void call result; not worth the asymmetry.)
        if len(escaping) != 1:
            return None
        out_id = escaping[0]
        out_ty = ctx.value_type(out_id)
        if out_ty is None or isinstance(out_ty, (tys.PointerType, tys.VoidType)):
            return None
        for value in incoming:
            in_ty = ctx.value_type(value)
            if in_ty is None or isinstance(in_ty, tys.VoidType):
                return None
        return function, block, start, end, instructions, incoming, out_id

    # -- protocol ------------------------------------------------------------------

    def precondition(self, ctx: Context) -> bool:
        analysis = self._analyse(ctx)
        if analysis is None:
            return False
        _, _, _, _, instructions, incoming, out_id = analysis
        defined = [
            inst.result_id for inst in instructions if inst.result_id is not None
        ]
        mapped = {int(k): int(v) for k, v in self.id_map.items()}
        params = {int(k): int(v) for k, v in self.param_map.items()}
        if not set(defined) <= set(mapped):
            return False
        if not set(incoming) <= set(params):
            return False
        needed_fresh = (
            [mapped[d] for d in defined]
            + [params[i] for i in incoming]
            + [self.fresh_function_id, self.fresh_label_id]
        )
        if len(set(needed_fresh)) != len(needed_fresh):
            return False
        if not all(ctx.is_fresh(v) for v in needed_fresh):
            return False
        # Return/param types must already be declared; the function type may
        # use the dedicated fresh id.
        return_ty = ctx.value_type(out_id)
        param_tys = tuple(ctx.value_type(i) for i in incoming)
        fn_ty = tys.FunctionType(return_ty, param_tys)  # type: ignore[arg-type]
        if ctx.module.find_type_id(fn_ty) is None:
            if self.fresh_function_type_id in needed_fresh:
                return False
            if not ctx.is_fresh(self.fresh_function_type_id):
                return False
        return True

    def apply(self, ctx: Context) -> None:
        analysis = self._analyse(ctx)
        assert analysis is not None
        function, block, start, end, instructions, incoming, out_id = analysis
        mapped = {int(k): int(v) for k, v in self.id_map.items()}
        params = {int(k): int(v) for k, v in self.param_map.items()}

        return_ty = ctx.value_type(out_id)
        assert return_ty is not None
        param_tys = [ctx.value_type(i) for i in incoming]
        fn_ty = tys.FunctionType(return_ty, tuple(param_tys))  # type: ignore[arg-type]
        fn_type_id = ctx.module.find_type_id(fn_ty)
        if fn_type_id is None:
            fn_type_id = ctx.module.claim_id(self.fresh_function_type_id)
            return_type_id = ctx.module.find_type_id(return_ty)
            assert return_type_id is not None
            param_type_ids = []
            for ty in param_tys:
                assert ty is not None
                tid = ctx.module.find_type_id(ty)
                assert tid is not None
                param_type_ids.append(tid)
            ctx.module.add_global(
                Instruction(
                    Op.TypeFunction,
                    fn_type_id,
                    None,
                    [return_type_id, *param_type_ids],
                )
            )
        return_type_id = ctx.module.find_type_id(return_ty)
        assert return_type_id is not None

        # Build the outlined function.
        ctx.module.claim_id(self.fresh_function_id)
        outlined = Function(
            Instruction(
                Op.Function,
                self.fresh_function_id,
                return_type_id,
                [FUNCTION_CONTROL_NONE, fn_type_id],
            )
        )
        binding = dict(mapped)
        for value in incoming:
            param_id = ctx.module.claim_id(params[value])
            param_type_id = ctx.module.find_type_id(ctx.value_type(value))
            assert param_type_id is not None
            outlined.params.append(
                Instruction(Op.FunctionParameter, param_id, param_type_id)
            )
            binding[value] = param_id
        body = Block(ctx.module.claim_id(self.fresh_label_id))
        for inst in instructions:
            copy = inst.clone()
            if copy.result_id is not None:
                ctx.module.claim_id(mapped[copy.result_id])
            copy.remap_ids(binding)
            body.instructions.append(copy)
        body.terminator = Instruction(Op.ReturnValue, None, None, [binding[out_id]])
        outlined.blocks.append(body)
        ctx.module.functions.append(outlined)
        ctx.module.names[self.fresh_function_id] = f"outlined_{self.first_id}"

        # Replace the region with a call that *reuses* the escaping id, so
        # downstream uses and facts are untouched.
        call = Instruction(
            Op.FunctionCall,
            out_id,
            return_type_id,
            [self.fresh_function_id, *incoming],
        )
        block.instructions[start : end + 1] = [call]