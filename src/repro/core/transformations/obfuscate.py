"""Obfuscating transformations: they hide from the compiler facts the fuzzer
knows to be true (constant values, input values, irrelevance)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import Context
from repro.core.transformation import Transformation
from repro.interp.values import f32, srem, wrap_i32
from repro.ir import types as tys
from repro.ir.module import Instruction
from repro.ir.opcodes import COMMUTATIVE_OPS, Op, OperandKind

#: Operand positions whose replacement could introduce UB even when the
#: current value is irrelevant: divisor slots and access-chain indices.
_GUARDED_POSITIONS = {
    Op.SDiv: {1},
    Op.SRem: {1},
}


def _locate_use(ctx: Context, instruction_id: int):
    located = ctx.module.containing_block(instruction_id)
    if located is None:
        return None
    function, block = located
    inst = next(i for i in block.instructions if i.result_id == instruction_id)
    return function, block, inst


def _id_slot(inst: Instruction, operand_index: int) -> int | None:
    slots = inst.operand_slots()
    if not 0 <= operand_index < len(slots):
        return None
    kind, operand = slots[operand_index]
    if kind is not OperandKind.ID:
        return None
    return int(operand)


@dataclass
class ReplaceIrrelevantId(Transformation):
    """Replace a use whose value cannot affect output with any type-correct
    available id.  The use qualifies through an ``Irrelevant`` fact on the
    current operand or an ``IrrelevantUse`` fact on the position."""

    type_name = "ReplaceIrrelevantId"

    instruction_id: int
    operand_index: int
    replacement_id: int

    def precondition(self, ctx: Context) -> bool:
        located = _locate_use(ctx, self.instruction_id)
        if located is None:
            return False
        function, block, inst = located
        if inst.opcode in (Op.Phi, Op.Variable):
            return False
        if self.operand_index in _GUARDED_POSITIONS.get(inst.opcode, ()):  # UB guard
            return False
        if inst.opcode is Op.AccessChain and self.operand_index >= 1:
            return False
        if inst.opcode is Op.FunctionCall and self.operand_index == 0:
            return False
        current = _id_slot(inst, self.operand_index)
        if current is None or current == self.replacement_id:
            return False
        if not (
            ctx.facts.is_irrelevant(current)
            or ctx.facts.is_irrelevant_use(self.instruction_id, self.operand_index)
        ):
            return False
        if ctx.value_type(current) != ctx.value_type(self.replacement_id):
            return False
        # Pointer-typed irrelevant uses must stay irrelevant-pointee (the
        # callee may store through them).
        if isinstance(ctx.value_type(current), tys.PointerType):
            if not ctx.facts.is_irrelevant_pointee(self.replacement_id):
                return False
        availability = ctx.availability(function)
        return availability.available_at(self.replacement_id, block.label_id, inst)

    def apply(self, ctx: Context) -> None:
        located = _locate_use(ctx, self.instruction_id)
        assert located is not None
        _, _, inst = located
        inst.operands[self.operand_index] = self.replacement_id
        # The new use is just as irrelevant as the old one.
        ctx.facts.add_irrelevant_use(self.instruction_id, self.operand_index)


@dataclass
class ReplaceConstantWithUniform(Transformation):
    """Replace a use of a scalar constant with a load from a uniform whose
    bound input value is known to equal it (§3.2) — obfuscating e.g. the fact
    that a block is dead by making reachability depend on an input."""

    type_name = "ReplaceConstantWithUniform"

    instruction_id: int
    operand_index: int
    uniform_id: int
    fresh_load_id: int

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_load_id):
            return False
        located = _locate_use(ctx, self.instruction_id)
        if located is None:
            return False
        _, block, inst = located
        if inst.opcode in (Op.Phi, Op.Variable):
            return False
        if inst.opcode is Op.AccessChain and self.operand_index >= 1:
            return False
        current = _id_slot(inst, self.operand_index)
        if current is None:
            return False
        const = ctx.defs().get(current)
        if const is None or const.opcode not in (
            Op.Constant,
            Op.ConstantTrue,
            Op.ConstantFalse,
        ):
            return False
        uniform = ctx.defs().get(self.uniform_id)
        if uniform is None or uniform.opcode is not Op.Variable:
            return False
        ptr_ty = ctx.types().get(uniform.type_id)
        if not isinstance(ptr_ty, tys.PointerType):
            return False
        if ptr_ty.storage is not tys.StorageClass.UNIFORM:
            return False
        if ptr_ty.pointee != ctx.value_type(current):
            return False
        name = ctx.module.name_of(self.uniform_id)
        if name is None or name not in ctx.inputs:
            return False
        bound = ctx.inputs[name]
        const_value = ctx.constant_value(current)
        if isinstance(ptr_ty.pointee, tys.BoolType):
            return isinstance(bound, bool) and bound == const_value
        if isinstance(ptr_ty.pointee, tys.IntType):
            return isinstance(bound, int) and not isinstance(bound, bool) and int(
                bound
            ) == const_value
        if isinstance(ptr_ty.pointee, tys.FloatType):
            try:
                return f32(float(bound)) == f32(float(const_value))  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return False
        return False

    def apply(self, ctx: Context) -> None:
        located = _locate_use(ctx, self.instruction_id)
        assert located is not None
        _, block, inst = located
        uniform = ctx.defs()[self.uniform_id]
        ptr_ty = ctx.types()[uniform.type_id]
        assert isinstance(ptr_ty, tys.PointerType)
        pointee_type_id = ctx.module.find_type_id(ptr_ty.pointee)
        assert pointee_type_id is not None
        ctx.module.claim_id(self.fresh_load_id)
        load = Instruction(
            Op.Load, self.fresh_load_id, pointee_type_id, [self.uniform_id]
        )
        index = block.instructions.index(inst)
        block.instructions.insert(index, load)
        inst.operands[self.operand_index] = self.fresh_load_id


@dataclass
class ObfuscateConstant(Transformation):
    """Replace a use of a constant with a tiny computation the fuzzer has
    verified (using true semantics) to produce the same value.

    Forms (one type, many shapes — §2.3's "common types" principle):

    * ``bool-int-eq`` / ``bool-float-eq``: ``true`` becomes ``c == c`` (or
      ``false`` becomes ``c != c``) over an existing scalar constant.
    * ``int-add-pair``: an int constant becomes ``c1 + c2`` where
      ``wrap(c1 + c2)`` equals it (the pair may deliberately overflow).
    * ``int-srem-pair``: an int constant becomes ``c1 % c2`` under truncating
      remainder semantics.
    """

    type_name = "ObfuscateConstant"

    instruction_id: int
    operand_index: int
    form: str
    fresh_id: int
    aux_const_ids: list[int] = field(default_factory=list)

    def _aux_values(self, ctx: Context) -> list | None:
        values = []
        for const_id in self.aux_const_ids:
            inst = ctx.defs().get(int(const_id))
            if inst is None or inst.opcode is not Op.Constant:
                return None
            values.append(inst.operands[0])
        return values

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        located = _locate_use(ctx, self.instruction_id)
        if located is None:
            return False
        _, block, inst = located
        if inst.opcode in (Op.Phi, Op.Variable):
            return False
        if inst.opcode is Op.AccessChain and self.operand_index >= 1:
            return False
        current = _id_slot(inst, self.operand_index)
        if current is None:
            return False
        const = ctx.defs().get(current)
        if const is None:
            return False
        aux = self._aux_values(ctx)
        if aux is None:
            return False

        if self.form in ("bool-int-eq", "bool-float-eq"):
            if const.opcode not in (Op.ConstantTrue, Op.ConstantFalse):
                return False
            if len(aux) != 1:
                return False
            if ctx.module.find_type_id(tys.BoolType()) is None:
                return False
            want = tys.IntType if self.form == "bool-int-eq" else tys.FloatType
            aux_ty = ctx.value_type(int(self.aux_const_ids[0]))
            if not isinstance(aux_ty, want):
                return False
            if self.form == "bool-float-eq":
                # NaN would make c == c false; constants are finite literals,
                # but keep the check explicit.
                value = float(aux[0])
                return value == value
            return True
        if self.form == "int-add-pair":
            if const.opcode is not Op.Constant or len(aux) != 2:
                return False
            if not isinstance(ctx.value_type(current), tys.IntType):
                return False
            if not all(
                isinstance(ctx.value_type(int(a)), tys.IntType)
                for a in self.aux_const_ids
            ):
                return False
            return wrap_i32(int(aux[0]) + int(aux[1])) == int(const.operands[0])
        if self.form == "int-srem-pair":
            if const.opcode is not Op.Constant or len(aux) != 2:
                return False
            if not isinstance(ctx.value_type(current), tys.IntType):
                return False
            if not all(
                isinstance(ctx.value_type(int(a)), tys.IntType)
                for a in self.aux_const_ids
            ):
                return False
            if int(aux[1]) == 0:
                return False
            return srem(int(aux[0]), int(aux[1])) == int(const.operands[0])
        return False

    def apply(self, ctx: Context) -> None:
        located = _locate_use(ctx, self.instruction_id)
        assert located is not None
        _, block, inst = located
        ctx.module.claim_id(self.fresh_id)
        a = [int(x) for x in self.aux_const_ids]
        current = _id_slot(inst, self.operand_index)
        assert current is not None
        const = ctx.defs()[current]
        if self.form in ("bool-int-eq", "bool-float-eq"):
            bool_type_id = ctx.module.find_type_id(tys.BoolType())
            assert bool_type_id is not None
            if self.form == "bool-int-eq":
                op = Op.IEqual if const.opcode is Op.ConstantTrue else Op.INotEqual
            else:
                op = Op.FOrdEqual if const.opcode is Op.ConstantTrue else Op.FOrdNotEqual
            new = Instruction(op, self.fresh_id, bool_type_id, [a[0], a[0]])
        else:
            int_type_id = ctx.defs()[a[0]].type_id
            assert int_type_id is not None
            op = Op.IAdd if self.form == "int-add-pair" else Op.SRem
            new = Instruction(op, self.fresh_id, int_type_id, [a[0], a[1]])
        index = block.instructions.index(inst)
        block.instructions.insert(index, new)
        inst.operands[self.operand_index] = self.fresh_id


@dataclass
class WrapInSelect(Transformation):
    """Route a use through ``OpSelect`` on a constant condition: the default
    form produces ``Select(true, x, other)``, the negated form
    ``Select(false, other, x)`` — one type, two forms."""

    type_name = "WrapInSelect"

    instruction_id: int
    operand_index: int
    fresh_id: int
    condition_id: int
    other_id: int
    negate: bool = False

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        located = _locate_use(ctx, self.instruction_id)
        if located is None:
            return False
        function, block, inst = located
        if inst.opcode in (Op.Phi, Op.Variable):
            return False
        if inst.opcode is Op.AccessChain:
            return False  # pointer/index operands must not route through Select
        if inst.opcode in (Op.Load, Op.Store) and self.operand_index == 0:
            return False
        if inst.opcode is Op.FunctionCall and self.operand_index == 0:
            return False
        current = _id_slot(inst, self.operand_index)
        if current is None:
            return False
        current_ty = ctx.value_type(current)
        if current_ty is None or isinstance(current_ty, tys.PointerType):
            return False
        cond = ctx.defs().get(self.condition_id)
        if cond is None:
            return False
        wanted = Op.ConstantFalse if self.negate else Op.ConstantTrue
        if cond.opcode is not wanted:
            return False
        if ctx.value_type(self.other_id) != current_ty:
            return False
        availability = ctx.availability(function)
        return availability.available_at(
            self.other_id, block.label_id, inst
        ) and availability.available_at(current, block.label_id, inst)

    def apply(self, ctx: Context) -> None:
        located = _locate_use(ctx, self.instruction_id)
        assert located is not None
        _, block, inst = located
        current = _id_slot(inst, self.operand_index)
        assert current is not None
        type_id = ctx.defs()[current].type_id
        ctx.module.claim_id(self.fresh_id)
        if self.negate:
            arms = [self.other_id, current]
        else:
            arms = [current, self.other_id]
        select = Instruction(
            Op.Select, self.fresh_id, type_id, [self.condition_id, *arms]
        )
        index = block.instructions.index(inst)
        block.instructions.insert(index, select)
        inst.operands[self.operand_index] = self.fresh_id


@dataclass
class SwapCommutableOperands(Transformation):
    """Swap the operands of a commutative instruction."""

    type_name = "SwapCommutableOperands"

    instruction_id: int

    def precondition(self, ctx: Context) -> bool:
        located = _locate_use(ctx, self.instruction_id)
        if located is None:
            return False
        _, _, inst = located
        return inst.opcode in COMMUTATIVE_OPS

    def apply(self, ctx: Context) -> None:
        located = _locate_use(ctx, self.instruction_id)
        assert located is not None
        _, _, inst = located
        inst.operands[0], inst.operands[1] = inst.operands[1], inst.operands[0]
