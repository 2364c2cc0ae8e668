"""Function-level transformations: control toggling, parameters, calls,
donor import, and inlining."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.context import Context
from repro.core.livesafe import (
    LivesafeRequirements,
    count_fresh_ids_needed,
    livesafe_obstacles,
    make_livesafe,
)
from repro.core.transformation import Transformation
from repro.core.transformations.insertion import InsertBefore, insert_instruction
from repro.ir import types as tys
from repro.ir.module import Function, Instruction
from repro.ir.opcodes import FUNCTION_CONTROLS, Op, op_info
from repro.ir.parser import ParseError, module_from_instructions, parse_instruction
from repro.ir.rewrite import InlinePlan, callee_ids_requiring_fresh, inline_call


@dataclass
class ToggleFunctionControl(Transformation):
    """Change a function's control mask (None / Inline / DontInline) — pure
    hints, so always semantics-preserving.  A one-instruction delta of this
    type reproduces the paper's Figure 3 SwiftShader bug."""

    type_name = "ToggleFunctionControl"

    function_id: int
    new_control: str

    def precondition(self, ctx: Context) -> bool:
        if self.new_control not in FUNCTION_CONTROLS:
            return False
        if not ctx.module.has_function(self.function_id):
            return False
        return ctx.module.get_function(self.function_id).control != self.new_control

    def apply(self, ctx: Context) -> None:
        ctx.module.get_function(self.function_id).control = self.new_control


@dataclass
class AddParameter(Transformation):
    """Add a parameter to a non-entry function, passing a default constant at
    every call site.  The parameter's value is recorded ``Irrelevant`` and
    each new call argument is an ``IrrelevantUse`` (§3.2/§3.3), so later
    passes can replace them with interesting expressions that the reducer
    can strip back to the constant."""

    type_name = "AddParameter"

    function_id: int
    fresh_parameter_id: int
    type_id: int
    default_const_id: int
    fresh_function_type_id: int

    def precondition(self, ctx: Context) -> bool:
        if not ctx.all_fresh_distinct(
            [self.fresh_parameter_id, self.fresh_function_type_id]
        ):
            return False
        if not ctx.module.has_function(self.function_id):
            return False
        if self.function_id == ctx.module.entry_point_id:
            return False
        ty = ctx.types().get(self.type_id)
        if ty is None or isinstance(ty, (tys.VoidType, tys.PointerType, tys.FunctionType)):
            return False
        const = ctx.defs().get(self.default_const_id)
        if const is None or not op_info(const.opcode).is_constant_decl:
            return False
        if const.opcode is Op.Undef:
            return False
        return ctx.value_type(self.default_const_id) == ty

    def apply(self, ctx: Context) -> None:
        function = ctx.module.get_function(self.function_id)
        old_fn_ty = ctx.types()[function.function_type_id]
        assert isinstance(old_fn_ty, tys.FunctionType)
        new_fn_ty = tys.FunctionType(
            old_fn_ty.return_type, old_fn_ty.params + (ctx.types()[self.type_id],)
        )
        new_type_id = ctx.module.find_type_id(new_fn_ty)
        if new_type_id is None:
            new_type_id = ctx.module.claim_id(self.fresh_function_type_id)
            old_decl = ctx.defs()[function.function_type_id]
            decl = Instruction(
                Op.TypeFunction,
                new_type_id,
                None,
                [*old_decl.operands, self.type_id],
            )
            ctx.module.add_global(decl)

        ctx.module.claim_id(self.fresh_parameter_id)
        function.params.append(
            Instruction(Op.FunctionParameter, self.fresh_parameter_id, self.type_id)
        )
        function.inst.operands[1] = new_type_id

        for caller in ctx.module.functions:
            for block in caller.blocks:
                for inst in block.instructions:
                    if (
                        inst.opcode is Op.FunctionCall
                        and int(inst.operands[0]) == self.function_id
                    ):
                        inst.operands.append(self.default_const_id)
                        assert inst.result_id is not None
                        ctx.facts.add_irrelevant_use(
                            inst.result_id, len(inst.operands) - 1
                        )
        ctx.facts.add_irrelevant(self.fresh_parameter_id)


@dataclass
class PermuteFunctionParameters(Transformation):
    """Permute a non-entry function's parameters, updating its function type
    and every call site consistently.

    ``permutation[i]`` gives the *old* index of the parameter now at
    position ``i``.  Requires a fresh id for the permuted function type when
    it does not already exist.
    """

    type_name = "PermuteFunctionParameters"

    function_id: int
    permutation: list[int] = field(default_factory=list)
    fresh_function_type_id: int = 0

    def precondition(self, ctx: Context) -> bool:
        if not ctx.module.has_function(self.function_id):
            return False
        if self.function_id == ctx.module.entry_point_id:
            return False
        function = ctx.module.get_function(self.function_id)
        arity = len(function.params)
        if arity < 2:
            return False
        if sorted(int(i) for i in self.permutation) != list(range(arity)):
            return False
        if [int(i) for i in self.permutation] == list(range(arity)):
            return False  # identity permutations add nothing
        old_fn_ty = ctx.types().get(function.function_type_id)
        if not isinstance(old_fn_ty, tys.FunctionType):
            return False
        new_fn_ty = tys.FunctionType(
            old_fn_ty.return_type,
            tuple(old_fn_ty.params[int(i)] for i in self.permutation),
        )
        if ctx.module.find_type_id(new_fn_ty) is None:
            return ctx.is_fresh(self.fresh_function_type_id)
        return True

    def apply(self, ctx: Context) -> None:
        function = ctx.module.get_function(self.function_id)
        order = [int(i) for i in self.permutation]
        old_fn_ty = ctx.types()[function.function_type_id]
        assert isinstance(old_fn_ty, tys.FunctionType)
        new_fn_ty = tys.FunctionType(
            old_fn_ty.return_type, tuple(old_fn_ty.params[i] for i in order)
        )
        new_type_id = ctx.module.find_type_id(new_fn_ty)
        if new_type_id is None:
            new_type_id = ctx.module.claim_id(self.fresh_function_type_id)
            old_decl = ctx.defs()[function.function_type_id]
            params = [int(old_decl.operands[1 + i]) for i in order]
            ctx.module.add_global(
                Instruction(
                    Op.TypeFunction,
                    new_type_id,
                    None,
                    [int(old_decl.operands[0]), *params],
                )
            )
        function.params = [function.params[i] for i in order]
        function.inst.operands[1] = new_type_id
        for caller in ctx.module.functions:
            for block in caller.blocks:
                for inst in block.instructions:
                    if (
                        inst.opcode is Op.FunctionCall
                        and int(inst.operands[0]) == self.function_id
                    ):
                        args = inst.operands[1:]
                        inst.operands = [inst.operands[0]] + [args[i] for i in order]
                        # IrrelevantUse facts are positional: permute them in
                        # lockstep with the arguments or a later
                        # ReplaceIrrelevantId could rewrite a *relevant* slot.
                        assert inst.result_id is not None
                        old_flags = [
                            ctx.facts.is_irrelevant_use(inst.result_id, 1 + i)
                            for i in range(len(args))
                        ]
                        for i in range(len(args)):
                            ctx.facts.irrelevant_uses.discard(
                                (inst.result_id, 1 + i)
                            )
                        for new_index, old_index in enumerate(order):
                            if old_flags[old_index]:
                                ctx.facts.add_irrelevant_use(
                                    inst.result_id, 1 + new_index
                                )


def _calls_transitively(ctx: Context, caller_id: int, target_id: int) -> bool:
    """Does *caller_id* (transitively) call *target_id*?"""
    seen: set[int] = set()
    stack = [caller_id]
    while stack:
        current = stack.pop()
        if current == target_id:
            return True
        if current in seen or not ctx.module.has_function(current):
            continue
        seen.add(current)
        for block in ctx.module.get_function(current).blocks:
            for inst in block.instructions:
                if inst.opcode is Op.FunctionCall:
                    stack.append(int(inst.operands[0]))
    return False


@dataclass
class FunctionCall(Transformation):
    """Add a call: to a ``LiveSafe`` function from anywhere, or to *any*
    function from a dead block (§3.2).  Arguments are typically trivial
    constants, recorded as ``IrrelevantUse`` so later passes can enrich them.
    Pointer arguments to live-safe callees must satisfy
    ``IrrelevantPointee``."""

    type_name = "FunctionCall"

    fresh_id: int
    callee_id: int
    arg_ids: list[int] = field(default_factory=list)
    anchor_id: int = 0
    block_label: int = 0

    def point(self) -> InsertBefore:
        return InsertBefore(self.anchor_id, self.block_label)

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        if not ctx.module.has_function(self.callee_id):
            return False
        callee = ctx.module.get_function(self.callee_id)
        fn_ty = ctx.types().get(callee.function_type_id)
        if not isinstance(fn_ty, tys.FunctionType):
            return False
        if len(self.arg_ids) != len(fn_ty.params):
            return False
        located = self.point().resolve(ctx)
        if located is None:
            return False
        function, block, index = located
        in_dead_block = ctx.facts.is_dead_block(block.label_id)
        if not in_dead_block:
            if not ctx.facts.is_livesafe(self.callee_id):
                return False
            # The callee must not reach back into the function we are calling
            # from, or a live call could recurse forever.
            if _calls_transitively(ctx, self.callee_id, function.result_id):
                return False
        availability = ctx.availability(function)
        anchor = block.instructions[index] if index < len(block.instructions) else None
        for arg, param_ty in zip(self.arg_ids, fn_ty.params):
            if ctx.value_type(int(arg)) != param_ty:
                return False
            if not availability.available_at(int(arg), block.label_id, anchor):
                return False
            if isinstance(param_ty, tys.PointerType) and not in_dead_block:
                if not ctx.facts.is_irrelevant_pointee(int(arg)):
                    return False
        return True

    def apply(self, ctx: Context) -> None:
        callee = ctx.module.get_function(self.callee_id)
        located = self.point().resolve(ctx)
        assert located is not None
        ctx.module.claim_id(self.fresh_id)
        inst = Instruction(
            Op.FunctionCall,
            self.fresh_id,
            callee.return_type_id,
            [self.callee_id, *[int(a) for a in self.arg_ids]],
        )
        insert_instruction(located, inst)
        ctx.facts.add_irrelevant(self.fresh_id)
        for i in range(len(self.arg_ids)):
            ctx.facts.add_irrelevant_use(self.fresh_id, 1 + i)


@dataclass
class InlineFunction(Transformation):
    """Inline one call site.  Carries an *explicit* mapping from callee ids
    to fresh ids (§3.3's independence example): reduction can drop earlier
    transformations that changed the callee without perturbing the ids this
    transformation introduces."""

    type_name = "InlineFunction"

    call_instruction_id: int
    id_map: dict[int, int] = field(default_factory=dict)
    continue_label_id: int = 0
    result_phi_id: int = 0

    def precondition(self, ctx: Context) -> bool:
        located = ctx.position(self.call_instruction_id)
        if located is None:
            return False
        caller, block, index = located
        call = block.instructions[index]
        if call.opcode is not Op.FunctionCall:
            return False
        callee_id = int(call.operands[0])
        if not ctx.module.has_function(callee_id):
            return False
        callee = ctx.module.get_function(callee_id)
        if callee.result_id == caller.result_id:
            return False
        mapped = {int(k): int(v) for k, v in self.id_map.items()}
        required = callee_ids_requiring_fresh(callee)
        if not set(required) <= set(mapped):
            return False
        value_returns = sum(
            1
            for b in callee.blocks
            if b.terminator is not None and b.terminator.opcode is Op.ReturnValue
        )
        if value_returns >= 2 and not self.result_phi_id:
            return False
        used_fresh = [mapped[r] for r in required] + [self.continue_label_id]
        if self.result_phi_id:
            used_fresh.append(self.result_phi_id)
        return ctx.all_fresh_distinct([int(v) for v in used_fresh])

    def apply(self, ctx: Context) -> None:
        located = ctx.position(self.call_instruction_id)
        assert located is not None
        caller, block, index = located
        call = block.instructions[index]
        callee = ctx.module.get_function(int(call.operands[0]))
        mapped = {int(k): int(v) for k, v in self.id_map.items()}
        required = callee_ids_requiring_fresh(callee)
        plan_map = {r: mapped[r] for r in required}
        for fresh in plan_map.values():
            ctx.module.claim_id(fresh)
        ctx.module.claim_id(self.continue_label_id)
        phi_id = self.result_phi_id or None
        if phi_id:
            ctx.module.claim_id(phi_id)
        plan = InlinePlan(plan_map, self.continue_label_id, phi_id)
        call_block_dead = ctx.facts.is_dead_block(block.label_id)
        inline_call(ctx.module, caller, block, call, plan)
        # Dead-block facts transfer to the clones (and to everything inlined
        # into a dead region).
        for old_label, new_label in plan_map.items():
            if callee.has_block(old_label) and (
                call_block_dead or ctx.facts.is_dead_block(old_label)
            ):
                ctx.facts.add_dead_block(new_label)
        if call_block_dead:
            ctx.facts.add_dead_block(self.continue_label_id)
            for old_label in [b.label_id for b in callee.blocks]:
                ctx.facts.add_dead_block(plan_map[old_label])


@functools.lru_cache(maxsize=1024)
def _parse_donor(
    declarations: Sequence[str], function_lines: Sequence[str]
) -> tuple[list[Instruction], Function] | None:
    """Parse an ``AddFunction`` record's text (see ``AddFunction._parse``)."""
    try:
        decls = [parse_instruction(line) for line in declarations]
        body = [parse_instruction(line) for line in function_lines]
        shell = module_from_instructions(body)
    except (ParseError, Exception):  # noqa: B014 - any malformed record fails Pre
        return None
    if len(shell.functions) != 1 or shell.global_insts:
        return None
    return decls, shell.functions[0]


@dataclass
class AddFunction(Transformation):
    """Import a donor function (§3.2).  The transformation encodes the full
    function body and any required global declarations as assembly text with
    donor-local ids, plus an explicit donor-id → fresh-id mapping, so donors
    are *not required during reduction* — exactly as in spirv-fuzz.

    With ``make_livesafe`` the body is rewritten per :mod:`repro.core.livesafe`
    (loop limiting, division guarding) and a ``LiveSafe`` fact is recorded.
    ``livesafe_ids`` supplies the fresh ids that rewriting consumes.
    """

    type_name = "AddFunction"

    declarations: list[str] = field(default_factory=list)
    function_lines: list[str] = field(default_factory=list)
    id_map: dict[int, int] = field(default_factory=dict)
    make_livesafe: bool = False
    livesafe_ids: list[int] = field(default_factory=list)
    name: str = "donated"

    # -- parsing helpers ---------------------------------------------------------

    def _parse(self) -> tuple[list[Instruction], Function] | None:
        """The parsed donor record, shared by every replay of equal text.

        The result is memoized and must stay read-only: ``precondition`` only
        inspects it, and ``apply`` clones each declaration and the function
        before remapping ids or making them live-safe.
        """
        try:
            return _parse_donor(tuple(self.declarations), tuple(self.function_lines))
        except TypeError:  # unhashable (malformed) record: parse it uncached
            return _parse_donor.__wrapped__(self.declarations, self.function_lines)

    def precondition(self, ctx: Context) -> bool:
        parsed = self._parse()
        if parsed is None:
            return False
        decls, function = parsed
        mapped = {int(k): int(v) for k, v in self.id_map.items()}
        donor_ids = [
            inst.result_id for inst in decls if inst.result_id is not None
        ]
        for inst in function.all_instructions():
            if inst.result_id is not None:
                donor_ids.append(inst.result_id)
        donor_id_set = set(donor_ids)
        if len(donor_id_set) != len(donor_ids):
            return False
        if not donor_id_set <= set(mapped):
            return False
        fresh_targets = [mapped[d] for d in donor_ids]
        extra = [int(i) for i in self.livesafe_ids]
        if len(set(fresh_targets + extra)) != len(fresh_targets) + len(extra):
            return False
        if not all(ctx.is_fresh(v) for v in fresh_targets + extra):
            return False
        if self.make_livesafe:
            if livesafe_obstacles(function):
                return False
            if len(extra) < count_fresh_ids_needed(function):
                return False
            if not self._livesafe_requirements_present(decls):
                return False
        # Declarations must be resolvable in order (types/constants only,
        # referencing earlier declarations).
        seen: set[int] = set()
        for inst in decls:
            info = op_info(inst.opcode)
            if not (info.is_type_decl or info.is_constant_decl):
                return False
            for used in inst.used_ids():
                if used not in seen:
                    return False
            if inst.result_id is not None:
                seen.add(inst.result_id)
        # Function body may only reference its own ids and declaration ids.
        for inst in function.all_instructions():
            for used in inst.used_ids():
                if used not in donor_id_set:
                    return False
        return True

    def _livesafe_requirements_present(self, decls: list[Instruction]) -> bool:
        """The donor declaration list must carry bool/int types, an int
        Function-pointer type, and the 0/1/limit constants."""
        return self._find_livesafe_requirements(decls) is not None

    def _find_livesafe_requirements(self, decls: list[Instruction]):
        bool_ty = int_ty = ptr_ty = zero = one = limit = None
        for inst in decls:
            if inst.opcode is Op.TypeBool:
                bool_ty = inst.result_id
            elif inst.opcode is Op.TypeInt:
                int_ty = inst.result_id
            elif inst.opcode is Op.TypePointer and str(inst.operands[0]) == "Function":
                if int_ty is not None and int(inst.operands[1]) == int_ty:
                    ptr_ty = inst.result_id
            elif inst.opcode is Op.Constant and inst.type_id == int_ty:
                if inst.operands[0] == 0:
                    zero = inst.result_id
                elif inst.operands[0] == 1:
                    one = inst.result_id
                elif inst.operands[0] == 8:
                    limit = inst.result_id
        if None in (bool_ty, int_ty, ptr_ty, zero, one, limit):
            return None
        return bool_ty, int_ty, ptr_ty, zero, one, limit

    def apply(self, ctx: Context) -> None:
        parsed = self._parse()
        assert parsed is not None
        decls, function = parsed
        mapped = {int(k): int(v) for k, v in self.id_map.items()}

        # Resolve declarations: reuse structurally identical existing
        # declarations, otherwise add them under their mapped fresh ids.
        resolved: dict[int, int] = {}
        for decl in decls:
            assert decl.result_id is not None
            donor_id = decl.result_id
            copy = decl.clone()
            copy.remap_ids({**resolved, donor_id: mapped[donor_id]})
            existing = self._find_existing(ctx, copy)
            if existing is not None:
                resolved[donor_id] = existing
            else:
                ctx.module.claim_id(copy.result_id)
                ctx.module.add_global(copy)
                resolved[donor_id] = copy.result_id
            ctx.invalidate()

        # Import the function under fresh ids.
        binding = dict(resolved)
        for inst in function.all_instructions():
            if inst.result_id is not None:
                binding[inst.result_id] = mapped[inst.result_id]
        imported = function.clone()
        imported.inst.remap_ids(binding)
        for param in imported.params:
            param.remap_ids(binding)
        for block in imported.blocks:
            block.label_id = binding[block.label_id]
            for inst in block.instructions:
                inst.remap_ids(binding)
            if block.terminator is not None:
                block.terminator.remap_ids(binding)
        for donor_id in [
            i.result_id for i in function.all_instructions() if i.result_id is not None
        ]:
            ctx.module.claim_id(mapped[donor_id])

        ctx.module.functions.append(imported)
        ctx.module.names[imported.result_id] = self.name
        ctx.invalidate()

        if self.make_livesafe:
            requirements_raw = self._find_livesafe_requirements(decls)
            assert requirements_raw is not None
            ids = tuple(resolved[i] for i in requirements_raw)
            requirements = LivesafeRequirements(*ids)
            make_livesafe(
                imported,
                requirements,
                [int(i) for i in self.livesafe_ids],
                ctx.module.claim_id,
            )
            ctx.facts.add_livesafe(imported.result_id)

    def _find_existing(self, ctx: Context, decl: Instruction) -> int | None:
        """An existing global declaration structurally identical to *decl*
        (ignoring its result id)."""
        for inst in ctx.module.global_insts:
            if (
                inst.opcode == decl.opcode
                and inst.type_id == decl.type_id
                and inst.operands == decl.operands
            ):
                return inst.result_id
        return None
