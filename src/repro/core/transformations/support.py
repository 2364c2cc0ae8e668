"""Supporting transformations: types, constants, variables.

These are "not interesting in isolation, but fuzzer passes frequently use
them to enable more interesting transformations" (§3.2); deduplication
ignores them (§3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import Context
from repro.core.transformation import Transformation
from repro.ir import types as tys
from repro.ir.module import Instruction, Operand
from repro.ir.opcodes import Op

_SCALAR_KINDS = {"void", "bool", "int", "float"}


@dataclass
class AddType(Transformation):
    """Declare a new type.

    ``kind`` selects the declaration; ``params`` holds existing type ids
    and/or literals depending on the kind:

    * ``"void" | "bool" | "int" | "float"`` — no params,
    * ``"vector"`` — [element type id, count],
    * ``"array"`` — [element type id, length],
    * ``"struct"`` — member type ids,
    * ``"pointer"`` — [storage class name, pointee type id].
    """

    type_name = "AddType"

    fresh_id: int
    kind: str
    params: list = field(default_factory=list)

    def _structural(self, ctx: Context) -> tys.Type | None:
        types = ctx.types()

        def ty(index: int) -> tys.Type | None:
            try:
                return types.get(int(self.params[index]))
            except (IndexError, TypeError, ValueError):
                return None

        try:
            if self.kind == "void":
                return tys.VoidType()
            if self.kind == "bool":
                return tys.BoolType()
            if self.kind == "int":
                return tys.IntType()
            if self.kind == "float":
                return tys.FloatType()
            if self.kind == "vector":
                element = ty(0)
                return tys.VectorType(element, int(self.params[1])) if element else None
            if self.kind == "array":
                element = ty(0)
                return tys.ArrayType(element, int(self.params[1])) if element else None
            if self.kind == "struct":
                members = [ty(i) for i in range(len(self.params))]
                if any(m is None for m in members) or not members:
                    return None
                return tys.StructType(tuple(members))  # type: ignore[arg-type]
            if self.kind == "pointer":
                storage = tys.STORAGE_BY_NAME.get(str(self.params[0]))
                pointee = ty(1)
                if storage is None or pointee is None:
                    return None
                return tys.PointerType(storage, pointee)
        except (ValueError, TypeError):
            return None
        return None

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        structural = self._structural(ctx)
        if structural is None:
            return False
        # Keep declarations canonical: at most one declaration per structural
        # type, so other transformations can locate types deterministically.
        return ctx.module.find_type_id(structural) is None

    def apply(self, ctx: Context) -> None:
        structural = self._structural(ctx)
        assert structural is not None
        ctx.module.claim_id(self.fresh_id)
        inst = _type_decl(self.fresh_id, structural, self.params)
        ctx.module.add_global(inst)


def _type_decl(result_id: int, ty: tys.Type, params: list) -> Instruction:
    if isinstance(ty, tys.VoidType):
        return Instruction(Op.TypeVoid, result_id)
    if isinstance(ty, tys.BoolType):
        return Instruction(Op.TypeBool, result_id)
    if isinstance(ty, tys.IntType):
        return Instruction(Op.TypeInt, result_id, None, [ty.width, ty.signed])
    if isinstance(ty, tys.FloatType):
        return Instruction(Op.TypeFloat, result_id, None, [ty.width])
    if isinstance(ty, tys.VectorType):
        return Instruction(Op.TypeVector, result_id, None, [int(params[0]), ty.count])
    if isinstance(ty, tys.ArrayType):
        return Instruction(Op.TypeArray, result_id, None, [int(params[0]), ty.length])
    if isinstance(ty, tys.StructType):
        return Instruction(Op.TypeStruct, result_id, None, [int(p) for p in params])
    if isinstance(ty, tys.PointerType):
        return Instruction(
            Op.TypePointer, result_id, None, [ty.storage.value, int(params[1])]
        )
    raise AssertionError(f"cannot declare {ty}")


@dataclass
class AddConstant(Transformation):
    """Declare a scalar or composite constant.

    For scalars ``value`` is the literal and ``member_ids`` is empty; for
    composites ``member_ids`` lists existing constant ids and ``value`` is
    ignored.
    """

    type_name = "AddConstant"

    fresh_id: int
    type_id: int
    value: Operand = 0
    member_ids: list[int] = field(default_factory=list)
    undef: bool = False

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        ty = ctx.types().get(self.type_id)
        if ty is None:
            return False
        if self.undef:
            # OpUndef reads are defined as the zero value in our semantics,
            # so declaring one is always sound; it is only ever *used* in
            # positions whose value is irrelevant.
            return not isinstance(ty, (tys.VoidType, tys.FunctionType))
        if isinstance(ty, tys.BoolType):
            return isinstance(self.value, bool) and not self.member_ids
        if isinstance(ty, tys.IntType):
            return (
                isinstance(self.value, int)
                and not isinstance(self.value, bool)
                and not self.member_ids
                and -(2**31) <= self.value < 2**31
            )
        if isinstance(ty, tys.FloatType):
            return (
                isinstance(self.value, (int, float))
                and not isinstance(self.value, bool)
                and not self.member_ids
            )
        if ty.is_composite():
            count = tys.composite_member_count(ty)
            if len(self.member_ids) != count:
                return False
            for i, member in enumerate(self.member_ids):
                inst = ctx.defs().get(int(member))
                if inst is None or not inst.opcode.value.startswith("OpConstant"):
                    return False
                if ctx.value_type(int(member)) != tys.composite_member_type(ty, i):
                    return False
            return True
        return False

    def apply(self, ctx: Context) -> None:
        ty = ctx.types()[self.type_id]
        ctx.module.claim_id(self.fresh_id)
        if self.undef:
            inst = Instruction(Op.Undef, self.fresh_id, self.type_id)
            ctx.module.add_global(inst)
            # An undef's (zero) value is by construction never relied upon.
            ctx.facts.add_irrelevant(self.fresh_id)
            return
        if isinstance(ty, tys.BoolType):
            op = Op.ConstantTrue if self.value else Op.ConstantFalse
            inst = Instruction(op, self.fresh_id, self.type_id)
        elif ty.is_composite():
            inst = Instruction(
                Op.ConstantComposite,
                self.fresh_id,
                self.type_id,
                [int(m) for m in self.member_ids],
            )
        else:
            value = self.value
            if isinstance(ty, tys.FloatType):
                value = float(value)
            inst = Instruction(Op.Constant, self.fresh_id, self.type_id, [value])
        ctx.module.add_global(inst)


@dataclass
class AddUniform(Transformation):
    """Add a new uniform variable to the module *and* a matching binding to
    the input set — the paper's §7 future work ("transformations that modify
    both a SPIR-V module and its input in sync").

    Definition 2.4 permits effects that change the input: nothing reads the
    new uniform yet, so ``Semantics(P', I') = Semantics(P, I)``.  Follow-on
    transformations (``ReplaceConstantWithUniform``) can then obfuscate
    constants through it.
    """

    type_name = "AddUniform"

    fresh_id: int
    kind: str  # "int" | "float" | "bool"
    name: str
    value: Operand = 0
    fresh_pointer_type_id: int = 0

    def _pointee(self) -> tys.Type | None:
        return {
            "int": tys.IntType(),
            "float": tys.FloatType(),
            "bool": tys.BoolType(),
        }.get(self.kind)

    def precondition(self, ctx: Context) -> bool:
        pointee = self._pointee()
        if pointee is None:
            return False
        if not self.name or self.name in ctx.inputs:
            return False
        if ctx.module.id_named(self.name) is not None:
            return False
        if ctx.module.find_type_id(pointee) is None:
            return False
        if isinstance(pointee, tys.IntType):
            if not isinstance(self.value, int) or isinstance(self.value, bool):
                return False
            if not -(2**31) <= self.value < 2**31:
                return False
        elif isinstance(pointee, tys.FloatType):
            if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
                return False
        elif not isinstance(self.value, bool):
            return False
        pointer = tys.PointerType(tys.StorageClass.UNIFORM, pointee)
        if ctx.module.find_type_id(pointer) is not None:
            return ctx.is_fresh(self.fresh_id)
        return ctx.all_fresh_distinct([self.fresh_id, self.fresh_pointer_type_id])

    def apply(self, ctx: Context) -> None:
        pointee = self._pointee()
        assert pointee is not None
        pointer = tys.PointerType(tys.StorageClass.UNIFORM, pointee)
        pointer_type_id = ctx.module.find_type_id(pointer)
        if pointer_type_id is None:
            pointer_type_id = ctx.module.claim_id(self.fresh_pointer_type_id)
            pointee_id = ctx.module.find_type_id(pointee)
            assert pointee_id is not None
            ctx.module.add_global(
                Instruction(
                    Op.TypePointer,
                    pointer_type_id,
                    None,
                    [tys.StorageClass.UNIFORM.value, pointee_id],
                )
            )
        ctx.module.claim_id(self.fresh_id)
        ctx.module.add_global(
            Instruction(
                Op.Variable,
                self.fresh_id,
                pointer_type_id,
                [tys.StorageClass.UNIFORM.value],
            )
        )
        ctx.module.names[self.fresh_id] = self.name
        ctx.inputs[self.name] = self.value


@dataclass
class AddVariable(Transformation):
    """Add a fresh local (Function-storage) or global (Private-storage)
    variable, recording an ``IrrelevantPointee`` fact: the program's output
    cannot depend on memory nothing else references yet."""

    type_name = "AddVariable"

    fresh_id: int
    pointer_type_id: int
    function_id: int = 0  # 0 means module-scope (Private)
    initializer_id: int = 0  # 0 means zero-initialised

    def precondition(self, ctx: Context) -> bool:
        if not ctx.is_fresh(self.fresh_id):
            return False
        ptr_ty = ctx.types().get(self.pointer_type_id)
        if not isinstance(ptr_ty, tys.PointerType):
            return False
        if self.function_id:
            if ptr_ty.storage is not tys.StorageClass.FUNCTION:
                return False
            if not ctx.module.has_function(self.function_id):
                return False
            if not ctx.module.get_function(self.function_id).blocks:
                return False
        elif ptr_ty.storage is not tys.StorageClass.PRIVATE:
            return False
        if self.initializer_id:
            init = ctx.defs().get(self.initializer_id)
            if init is None or not init.opcode.value.startswith("OpConstant"):
                return False
            if ctx.value_type(self.initializer_id) != ptr_ty.pointee:
                return False
        return True

    def apply(self, ctx: Context) -> None:
        ptr_ty = ctx.types()[self.pointer_type_id]
        assert isinstance(ptr_ty, tys.PointerType)
        ctx.module.claim_id(self.fresh_id)
        operands: list[Operand] = [ptr_ty.storage.value]
        if self.initializer_id:
            operands.append(self.initializer_id)
        inst = Instruction(Op.Variable, self.fresh_id, self.pointer_type_id, operands)
        if self.function_id:
            entry = ctx.module.get_function(self.function_id).entry_block()
            index = 0
            while (
                index < len(entry.instructions)
                and entry.instructions[index].opcode is Op.Variable
            ):
                index += 1
            entry.instructions.insert(index, inst)
        else:
            ctx.module.add_global(inst)
        ctx.facts.add_irrelevant_pointee(self.fresh_id)
