"""Synonym-creating transformations and synonym exploitation.

These implement the paper's ``Synonymous`` fact machinery: copies, equation
instructions (spirv-fuzz's ``TransformationEquationInstruction``), composite
construction/extraction, and ``ReplaceIdWithSynonym``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import Context
from repro.core.facts import DataDescriptor, plain
from repro.core.transformation import Transformation
from repro.core.transformations.insertion import InsertBefore, insert_instruction
from repro.ir import types as tys
from repro.ir.module import Instruction
from repro.ir.opcodes import Op, OperandKind, op_info

#: Equation forms: (number of fresh ids, textual shape).
EQUATION_FORMS = (
    "iadd-zero",
    "imul-one",
    "iadd-isub",
    "fneg-fneg",
    "lognot-lognot",
    "invert-compare",
    "free",
)

#: Comparison opcodes and their negations (for the invert-compare form:
#: ``not (a OP' b)`` is a synonym for ``a OP b``).
_COMPARE_NEGATIONS = {
    Op.SLessThan: Op.SGreaterThanEqual,
    Op.SLessThanEqual: Op.SGreaterThan,
    Op.SGreaterThan: Op.SLessThanEqual,
    Op.SGreaterThanEqual: Op.SLessThan,
    Op.IEqual: Op.INotEqual,
    Op.INotEqual: Op.IEqual,
}

_FREE_OPS = {
    "OpIAdd": Op.IAdd,
    "OpISub": Op.ISub,
    "OpIMul": Op.IMul,
    "OpSDiv": Op.SDiv,
    "OpSRem": Op.SRem,
    "OpSNegate": Op.SNegate,
    "OpFAdd": Op.FAdd,
    "OpFSub": Op.FSub,
    "OpFMul": Op.FMul,
    "OpFDiv": Op.FDiv,
    "OpFNegate": Op.FNegate,
}
_TRAPPING_FREE = {"OpSDiv", "OpSRem"}
_FLOAT_FREE = {"OpFAdd", "OpFSub", "OpFMul", "OpFDiv", "OpFNegate"}
_UNARY_FREE = {"OpSNegate", "OpFNegate"}


@dataclass
class AddCopyObject(Transformation):
    """``OpCopyObject``: the canonical synonym creator."""

    type_name = "AddCopyObject"

    fresh_id: int
    source_id: int
    anchor_id: int = 0
    block_label: int = 0

    def point(self) -> InsertBefore:
        return InsertBefore(self.anchor_id, self.block_label)

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        source = ctx.defs().get(self.source_id)
        if source is None or source.type_id is None:
            return False
        if op_info(source.opcode).is_type_decl or source.opcode is Op.Function:
            return False
        located = self.point().resolve(ctx)
        if located is None:
            return False
        function, block, index = located
        availability = ctx.availability(function)
        anchor = block.instructions[index] if index < len(block.instructions) else None
        return availability.available_at(self.source_id, block.label_id, anchor)

    def apply(self, ctx: Context) -> None:
        source = ctx.defs()[self.source_id]
        located = self.point().resolve(ctx)
        assert located is not None
        ctx.module.claim_id(self.fresh_id)
        inst = Instruction(Op.CopyObject, self.fresh_id, source.type_id, [self.source_id])
        insert_instruction(located, inst)
        ctx.facts.add_synonym(plain(self.fresh_id), plain(self.source_id))
        if ctx.facts.is_irrelevant(self.source_id):
            ctx.facts.add_irrelevant(self.fresh_id)
        if ctx.facts.is_irrelevant_pointee(self.source_id):
            ctx.facts.add_irrelevant_pointee(self.fresh_id)


@dataclass
class AddEquationInstruction(Transformation):
    """Insert arithmetic that provably computes an existing value, recording
    a synonym — or, in the ``free`` form, arbitrary arithmetic with no fact
    (trapping opcodes only inside dead blocks).

    Forms: ``iadd-zero`` (``t = y + 0``), ``imul-one`` (``t = y * 1``),
    ``iadd-isub`` (``t1 = y + c; t2 = t1 - c``, exact under wrapping),
    ``fneg-fneg`` (``t2 = -(-y)``, exact in IEEE), ``lognot-lognot``, and
    ``free``.
    """

    type_name = "AddEquationInstruction"

    fresh_ids: list[int]
    form: str
    operand_ids: list[int] = field(default_factory=list)
    free_op: str = ""
    anchor_id: int = 0
    block_label: int = 0

    def point(self) -> InsertBefore:
        return InsertBefore(self.anchor_id, self.block_label)

    def _constant_value(self, ctx: Context, value_id: int):
        inst = ctx.defs().get(value_id)
        if inst is None or inst.opcode is not Op.Constant:
            return None
        return inst.operands[0]

    def precondition(self, ctx: Context) -> bool:
        if self.form not in EQUATION_FORMS:
            return False
        if not ctx.all_fresh_distinct([int(i) for i in self.fresh_ids]):
            return False
        located = self.point().resolve(ctx)
        if located is None:
            return False
        function, block, index = located
        availability = ctx.availability(function)
        anchor = block.instructions[index] if index < len(block.instructions) else None
        for operand in self.operand_ids:
            if not availability.available_at(int(operand), block.label_id, anchor):
                return False
            if ctx.value_type(int(operand)) is None:
                return False

        types = [ctx.value_type(int(o)) for o in self.operand_ids]
        n_fresh = len(self.fresh_ids)

        if self.form == "iadd-zero":
            if n_fresh != 1 or len(types) != 2:
                return False
            return (
                isinstance(types[0], tys.IntType)
                and types[0] == types[1]
                and self._constant_value(ctx, int(self.operand_ids[1])) == 0
            )
        if self.form == "imul-one":
            if n_fresh != 1 or len(types) != 2:
                return False
            return (
                isinstance(types[0], tys.IntType)
                and types[0] == types[1]
                and self._constant_value(ctx, int(self.operand_ids[1])) == 1
            )
        if self.form == "iadd-isub":
            if n_fresh != 2 or len(types) != 2:
                return False
            return isinstance(types[0], tys.IntType) and types[0] == types[1]
        if self.form == "fneg-fneg":
            return (
                n_fresh == 2 and len(types) == 1 and isinstance(types[0], tys.FloatType)
            )
        if self.form == "lognot-lognot":
            return (
                n_fresh == 2 and len(types) == 1 and isinstance(types[0], tys.BoolType)
            )
        if self.form == "invert-compare":
            # operand_ids = [c] where c is an integer comparison; we emit the
            # negated comparison over c's operands plus a LogicalNot, and
            # record Synonymous(not(negated), c).
            if n_fresh != 2 or len(self.operand_ids) != 1:
                return False
            source = ctx.defs().get(int(self.operand_ids[0]))
            if source is None or source.opcode not in _COMPARE_NEGATIONS:
                return False
            for operand in source.operands:
                if not availability.available_at(int(operand), block.label_id, anchor):
                    return False
            return True
        # free form
        if n_fresh != 1 or self.free_op not in _FREE_OPS:
            return False
        if self.free_op in _TRAPPING_FREE and not ctx.facts.is_dead_block(
            block.label_id
        ):
            return False
        want = tys.FloatType if self.free_op in _FLOAT_FREE else tys.IntType
        arity = 1 if self.free_op in _UNARY_FREE else 2
        if len(types) != arity:
            return False
        return all(isinstance(t, want) for t in types) and len(set(map(str, types))) == 1

    def apply(self, ctx: Context) -> None:
        located = self.point().resolve(ctx)
        assert located is not None
        _, block, index = located
        operands = [int(o) for o in self.operand_ids]
        type_id = ctx.defs()[operands[0]].type_id
        fresh = [ctx.module.claim_id(int(i)) for i in self.fresh_ids]

        def emit(op: Op, result: int, ops: list[int]) -> None:
            nonlocal index
            block.instructions.insert(index, Instruction(op, result, type_id, ops))
            index += 1

        if self.form == "iadd-zero":
            emit(Op.IAdd, fresh[0], operands)
            ctx.facts.add_synonym(plain(fresh[0]), plain(operands[0]))
        elif self.form == "imul-one":
            emit(Op.IMul, fresh[0], operands)
            ctx.facts.add_synonym(plain(fresh[0]), plain(operands[0]))
        elif self.form == "iadd-isub":
            emit(Op.IAdd, fresh[0], operands)
            emit(Op.ISub, fresh[1], [fresh[0], operands[1]])
            ctx.facts.add_synonym(plain(fresh[1]), plain(operands[0]))
        elif self.form == "fneg-fneg":
            emit(Op.FNegate, fresh[0], operands)
            emit(Op.FNegate, fresh[1], [fresh[0]])
            ctx.facts.add_synonym(plain(fresh[1]), plain(operands[0]))
        elif self.form == "lognot-lognot":
            emit(Op.LogicalNot, fresh[0], operands)
            emit(Op.LogicalNot, fresh[1], [fresh[0]])
            ctx.facts.add_synonym(plain(fresh[1]), plain(operands[0]))
        elif self.form == "invert-compare":
            source = ctx.defs()[operands[0]]
            negated_op = _COMPARE_NEGATIONS[source.opcode]
            bool_type_id = source.type_id
            block.instructions.insert(
                index,
                Instruction(
                    negated_op, fresh[0], bool_type_id, list(source.operands)
                ),
            )
            block.instructions.insert(
                index + 1,
                Instruction(Op.LogicalNot, fresh[1], bool_type_id, [fresh[0]]),
            )
            ctx.facts.add_synonym(plain(fresh[1]), plain(operands[0]))
        else:
            emit(_FREE_OPS[self.free_op], fresh[0], operands)


@dataclass
class AddCompositeConstruct(Transformation):
    """Build a composite from available parts, recording a ``Synonymous``
    fact per component (§3.2)."""

    type_name = "AddCompositeConstruct"

    fresh_id: int
    result_type_id: int
    member_ids: list[int] = field(default_factory=list)
    anchor_id: int = 0
    block_label: int = 0

    def point(self) -> InsertBefore:
        return InsertBefore(self.anchor_id, self.block_label)

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        result_ty = ctx.types().get(self.result_type_id)
        if result_ty is None or not result_ty.is_composite():
            return False
        if len(self.member_ids) != tys.composite_member_count(result_ty):
            return False
        located = self.point().resolve(ctx)
        if located is None:
            return False
        function, block, index = located
        availability = ctx.availability(function)
        anchor = block.instructions[index] if index < len(block.instructions) else None
        for i, member in enumerate(self.member_ids):
            if ctx.value_type(int(member)) != tys.composite_member_type(result_ty, i):
                return False
            if not availability.available_at(int(member), block.label_id, anchor):
                return False
        return True

    def apply(self, ctx: Context) -> None:
        located = self.point().resolve(ctx)
        assert located is not None
        ctx.module.claim_id(self.fresh_id)
        inst = Instruction(
            Op.CompositeConstruct,
            self.fresh_id,
            self.result_type_id,
            [int(m) for m in self.member_ids],
        )
        insert_instruction(located, inst)
        for i, member in enumerate(self.member_ids):
            ctx.facts.add_synonym(
                DataDescriptor(self.fresh_id, (i,)), plain(int(member))
            )


@dataclass
class AddCompositeExtract(Transformation):
    """Extract a component, recording ``Synonymous(result, composite[i...])``
    — which transitively links the result to whatever the component is
    already known to equal."""

    type_name = "AddCompositeExtract"

    fresh_id: int
    composite_id: int
    indices: list[int] = field(default_factory=list)
    anchor_id: int = 0
    block_label: int = 0

    def point(self) -> InsertBefore:
        return InsertBefore(self.anchor_id, self.block_label)

    def _member_type(self, ctx: Context) -> tys.Type | None:
        composite_ty = ctx.value_type(self.composite_id)
        if composite_ty is None:
            return None
        try:
            return tys.walk_composite(composite_ty, tuple(int(i) for i in self.indices))
        except (TypeError, IndexError):
            return None

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id) or not self.indices:
            return False
        member_ty = self._member_type(ctx)
        if member_ty is None or ctx.module.find_type_id(member_ty) is None:
            return False
        located = self.point().resolve(ctx)
        if located is None:
            return False
        function, block, index = located
        availability = ctx.availability(function)
        anchor = block.instructions[index] if index < len(block.instructions) else None
        return availability.available_at(self.composite_id, block.label_id, anchor)

    def apply(self, ctx: Context) -> None:
        member_ty = self._member_type(ctx)
        assert member_ty is not None
        type_id = ctx.module.find_type_id(member_ty)
        assert type_id is not None
        located = self.point().resolve(ctx)
        assert located is not None
        ctx.module.claim_id(self.fresh_id)
        inst = Instruction(
            Op.CompositeExtract,
            self.fresh_id,
            type_id,
            [self.composite_id, *[int(i) for i in self.indices]],
        )
        insert_instruction(located, inst)
        ctx.facts.add_synonym(
            plain(self.fresh_id),
            DataDescriptor(self.composite_id, tuple(int(i) for i in self.indices)),
        )


@dataclass
class AddCompositeInsert(Transformation):
    """``OpCompositeInsert`` of a value into a composite, recording what is
    known afterwards: the touched slot is synonymous with the inserted
    object, and every *other* slot is synonymous with the corresponding slot
    of the source composite."""

    type_name = "AddCompositeInsert"

    fresh_id: int
    composite_id: int
    object_id: int
    index: int = 0
    anchor_id: int = 0
    block_label: int = 0

    def point(self) -> InsertBefore:
        return InsertBefore(self.anchor_id, self.block_label)

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        composite_ty = ctx.value_type(self.composite_id)
        if composite_ty is None or not composite_ty.is_composite():
            return False
        count = tys.composite_member_count(composite_ty)
        if not 0 <= self.index < count:
            return False
        if ctx.value_type(self.object_id) != tys.composite_member_type(
            composite_ty, self.index
        ):
            return False
        located = self.point().resolve(ctx)
        if located is None:
            return False
        function, block, position = located
        availability = ctx.availability(function)
        anchor = (
            block.instructions[position]
            if position < len(block.instructions)
            else None
        )
        return availability.available_at(
            self.composite_id, block.label_id, anchor
        ) and availability.available_at(self.object_id, block.label_id, anchor)

    def apply(self, ctx: Context) -> None:
        source = ctx.defs()[self.composite_id]
        located = self.point().resolve(ctx)
        assert located is not None
        ctx.module.claim_id(self.fresh_id)
        inst = Instruction(
            Op.CompositeInsert,
            self.fresh_id,
            source.type_id,
            [self.object_id, self.composite_id, self.index],
        )
        insert_instruction(located, inst)
        composite_ty = ctx.value_type(self.composite_id)
        assert composite_ty is not None  # same type as the result
        ctx.facts.add_synonym(
            DataDescriptor(self.fresh_id, (self.index,)), plain(self.object_id)
        )
        for other in range(tys.composite_member_count(composite_ty)):
            if other != self.index:
                ctx.facts.add_synonym(
                    DataDescriptor(self.fresh_id, (other,)),
                    DataDescriptor(self.composite_id, (other,)),
                )


@dataclass
class ReplaceIdWithSynonym(Transformation):
    """Replace an operand with a known-equal id (§3.2).  Ignored by
    deduplication: it reaps the benefits of earlier transformations but is
    not interesting in isolation (§3.5)."""

    type_name = "ReplaceIdWithSynonym"

    instruction_id: int
    operand_index: int
    synonym_id: int

    def precondition(self, ctx: Context) -> bool:
        located = ctx.position(self.instruction_id)
        if located is None:
            return False
        function, block, index = located
        inst = block.instructions[index]
        if inst.opcode in (Op.Phi, Op.Variable):
            return False
        slots = inst.operand_slots()
        if not 0 <= self.operand_index < len(slots):
            return False
        kind, operand = slots[self.operand_index]
        if kind is not OperandKind.ID:
            return False
        current = int(operand)
        if current == self.synonym_id:
            return False
        if not ctx.facts.are_synonymous(plain(current), plain(self.synonym_id)):
            return False
        if ctx.value_type(current) != ctx.value_type(self.synonym_id):
            return False
        # AccessChain struct indices must stay literal constants; synonyms of
        # constants (e.g. copies) are not constants, so skip index positions.
        if inst.opcode is Op.AccessChain and self.operand_index >= 1:
            return False
        availability = ctx.availability(function)
        return availability.available_at(self.synonym_id, block.label_id, inst)

    def apply(self, ctx: Context) -> None:
        located = ctx.position(self.instruction_id)
        assert located is not None
        _, block, index = located
        inst = block.instructions[index]
        # Map the slot index back to the flat operand index.
        flat_index = self.operand_index
        inst.operands[flat_index] = self.synonym_id
