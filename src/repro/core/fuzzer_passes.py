"""Fuzzer passes (§3.2).

Each pass "sweeps through the module looking for opportunities to apply a
particular combination of transformations, probabilistically deciding which
of these opportunities to take".  A pass produces candidate transformations;
the shared driver applies those whose preconditions hold, spending the
transformation budget.

Passes also declare *recommended follow-on passes*, implementing the paper's
recommendations strategy: after running a pass, a random subset of its
follow-ons is pushed onto the recommendation queue.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass

from repro.core.context import Context
from repro.core.livesafe import count_fresh_ids_needed, livesafe_obstacles
from repro.core.transformation import Transformation
from repro.core.transformations import (
    AddAccessChain,
    AddCompositeConstruct,
    AddCompositeExtract,
    AddCompositeInsert,
    AddConstant,
    AddCopyObject,
    AddDeadBlock,
    AddEquationInstruction,
    AddFunction,
    AddLoad,
    AddParameter,
    AddStore,
    AddType,
    AddUniform,
    AddVariable,
    FunctionCall,
    InlineFunction,
    InsertBefore,
    MoveBlockDown,
    ObfuscateBranch,
    ObfuscateConstant,
    OutlineFunction,
    PermuteFunctionParameters,
    PermutePhiOperands,
    PropagateInstructionUp,
    ReplaceBranchWithKill,
    ReplaceConstantWithUniform,
    ReplaceIdWithSynonym,
    ReplaceIrrelevantId,
    SplitBlock,
    SwapCommutableOperands,
    ToggleFunctionControl,
    WrapInSelect,
    WrapRegionInSelection,
)
from repro.core.transformations.insertion import block_insertion_points
from repro.interp.values import srem, wrap_i32
from repro.ir import types as tys
from repro.ir.module import Instruction
from repro.ir.opcodes import (
    COMMUTATIVE_OPS,
    FUNCTION_CONTROLS,
    Op,
    OperandKind,
    op_info,
)
from repro.ir.printer import format_instruction
from repro.ir.rewrite import callee_ids_requiring_fresh


class IdSource:
    """Hands out ids guaranteed fresh for the whole fuzzing session.

    Transformations record these explicitly (the paper's independence
    principle); the source never reuses an id, so recorded transformations
    stay mutually consistent under any subsequence replay.
    """

    def __init__(self, start: int) -> None:
        self._next = start

    def take(self) -> int:
        value = self._next
        self._next += 1
        return value

    def take_many(self, count: int) -> list[int]:
        return [self.take() for _ in range(count)]


@dataclass
class Budget:
    """Remaining transformation budget (the paper caps runs at 2000)."""

    remaining: int

    def exhausted(self) -> bool:
        return self.remaining <= 0

    def spend(self) -> None:
        self.remaining -= 1


class FuzzerPass(abc.ABC):
    """Base class: candidate generation plus the apply-with-budget driver."""

    name: str = "pass"
    #: Names of passes worth running soon after this one (recommendations).
    follow_ons: tuple[str, ...] = ()
    #: Probability of taking each opportunity the sweep finds.
    chance: float = 0.35
    #: Cap on applications per pass execution, to keep sweeps bounded.
    max_applications: int = 8

    @abc.abstractmethod
    def candidates(
        self, ctx: Context, rng: random.Random, ids: IdSource
    ) -> list[Transformation]:
        """Generate candidate transformations for the current context."""

    def run(
        self,
        ctx: Context,
        rng: random.Random,
        ids: IdSource,
        budget: Budget,
        *,
        recover: bool = False,
    ) -> list[Transformation]:
        applied: list[Transformation] = []
        for candidate in self.candidates(ctx, rng, ids):
            if budget.exhausted() or len(applied) >= self.max_applications:
                break
            if rng.random() > self.chance:
                continue
            if candidate.precondition(ctx):
                if recover:
                    # Robustness mode: a buggy effect must cost only its own
                    # transformation, and a *partial* effect must never leak
                    # into the variant (it would break the semantics-
                    # preservation invariant and fake miscompilations), so
                    # roll the context back to the pre-apply snapshot.
                    snapshot = ctx.clone()
                    try:
                        candidate.apply(ctx)
                    except Exception:
                        ctx.module = snapshot.module
                        ctx.inputs = snapshot.inputs
                        ctx.facts = snapshot.facts
                        ctx.invalidate()
                        continue
                else:
                    candidate.apply(ctx)
                ctx.invalidate()
                budget.spend()
                applied.append(candidate)
        return applied

    # -- shared sampling helpers -------------------------------------------------

    def _random_points(
        self,
        ctx: Context,
        rng: random.Random,
        count: int,
        *,
        dead_only: bool = False,
    ) -> list[InsertBefore]:
        # Shuffle plain pairs; only the points kept become InsertBefore.
        points: list[tuple[int, int]] = []
        for function in ctx.module.functions:
            for block in function.blocks:
                if dead_only and not ctx.facts.is_dead_block(block.label_id):
                    continue
                points += block_insertion_points(block)
        rng.shuffle(points)
        return [InsertBefore(anchor, label) for anchor, label in points[:count]]

    def _values_at(
        self, ctx: Context, point: InsertBefore, predicate
    ) -> list[int]:
        located = self._availability_at(ctx, point)
        if located is None:
            return []
        availability, label, anchor = located
        return [
            value_id
            for value_id, ty in availability.typed_available_at(label, anchor)
            if ty is not None and predicate(value_id, ty)
        ]

    def _values_of_type(self, ctx: Context, point: InsertBefore, ty: tys.Type) -> list[int]:
        """``_values_at`` with the predicate ``type == ty``, answered from the
        availability's per-type buckets (read-only)."""
        located = self._availability_at(ctx, point)
        if located is None:
            return []
        availability, label, anchor = located
        return availability.ids_of_type_at(label, anchor, ty)

    def _availability_at(self, ctx: Context, point: InsertBefore):
        """``(availability, block label, anchor or None)`` of *point*, or None
        when it does not resolve."""
        located = point.resolve(ctx)
        if located is None:
            return None
        function, block, index = located
        anchor = block.instructions[index] if index < len(block.instructions) else None
        return ctx.availability(function), block.label_id, anchor

    def _body_instructions(self, ctx: Context) -> list[Instruction]:
        result = []
        for function in ctx.module.functions:
            for block in function.blocks:
                result.extend(
                    inst for inst in block.instructions if inst.result_id is not None
                )
        return result

    def _id_operand_slots(self, inst: Instruction) -> tuple[int, ...]:
        """Operand indices holding value ids (excludes phis by caller).

        The slots depend on the opcode and operand count alone, so they are
        memoized per that pair; a malformed count raises every time."""
        key = (inst.opcode, len(inst.operands))
        slots = _ID_OPERAND_SLOTS.get(key)
        if slots is None:
            slots = _ID_OPERAND_SLOTS[key] = tuple(
                i
                for i, (kind, _) in enumerate(inst.operand_slots())
                if kind is OperandKind.ID
            )
        return slots


#: ``FuzzerPass._id_operand_slots`` per (opcode, operand count).
_ID_OPERAND_SLOTS: dict[tuple[Op, int], tuple[int, ...]] = {}


# -- concrete passes -------------------------------------------------------------


class PassAddTypesAndConstants(FuzzerPass):
    name = "add_types_constants"
    follow_ons = ("add_variables", "add_composites", "add_dead_blocks", "obfuscate")
    chance = 0.8

    _INTERESTING_INTS = (0, 1, 2, 3, 8, -1, 100, 2**31 - 1, -(2**31), 7, 13)
    _INTERESTING_FLOATS = (0.0, 1.0, -1.0, 0.5, 256.0)

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for kind in ("bool", "int", "float"):
            out.append(AddType(ids.take(), kind))
        types = ctx.types()
        int_ids = [i for i, t in types.items() if isinstance(t, tys.IntType)]
        float_ids = [i for i, t in types.items() if isinstance(t, tys.FloatType)]
        bool_ids = [i for i, t in types.items() if isinstance(t, tys.BoolType)]
        scalar_ids = int_ids + float_ids + bool_ids
        if scalar_ids:
            element = rng.choice(scalar_ids)
            out.append(AddType(ids.take(), "vector", [element, rng.choice((2, 3, 4))]))
            out.append(AddType(ids.take(), "array", [element, rng.choice((2, 3, 4))]))
        composite_ids = [i for i, t in types.items() if t.is_composite()]
        members = scalar_ids + composite_ids
        if members:
            chosen = [rng.choice(members) for _ in range(rng.randint(1, 3))]
            out.append(AddType(ids.take(), "struct", chosen))
        if composite_ids:
            # Deepen the type zoo: arrays/structs *of* composites give access
            # chains something to descend into.
            nested = rng.choice(composite_ids)
            out.append(AddType(ids.take(), "array", [nested, rng.choice((2, 3))]))
        pointable = [
            i
            for i, t in types.items()
            if not isinstance(t, (tys.VoidType, tys.FunctionType, tys.PointerType))
        ]
        if pointable:
            pointee = rng.choice(pointable)
            storage = rng.choice(("Function", "Private"))
            out.append(AddType(ids.take(), "pointer", [storage, pointee]))
        for int_type in int_ids[:1]:
            for value in rng.sample(self._INTERESTING_INTS, k=4):
                out.append(AddConstant(ids.take(), int_type, value))
        for float_type in float_ids[:1]:
            for value in rng.sample(self._INTERESTING_FLOATS, k=2):
                out.append(AddConstant(ids.take(), float_type, value))
        for bool_type in bool_ids[:1]:
            out.append(AddConstant(ids.take(), bool_type, True))
            out.append(AddConstant(ids.take(), bool_type, False))
        if scalar_ids and rng.random() < 0.4:
            out.append(AddConstant(ids.take(), rng.choice(scalar_ids), undef=True))
        # A composite constant now and then.
        for type_id, ty in types.items():
            if not ty.is_composite() or rng.random() < 0.7:
                continue
            member_types = [
                tys.composite_member_type(ty, i)
                for i in range(tys.composite_member_count(ty))
            ]
            member_ids = []
            for member_ty in member_types:
                options = [
                    inst.result_id
                    for inst in ctx.module.global_insts
                    if op_info(inst.opcode).is_constant_decl
                    and inst.opcode is not Op.Undef
                    and inst.type_id is not None
                    and ctx.types().get(inst.type_id) == member_ty
                ]
                if not options:
                    member_ids = []
                    break
                member_ids.append(rng.choice(options))
            if member_ids:
                out.append(AddConstant(ids.take(), type_id, 0, member_ids))
        return out


class PassAddVariables(FuzzerPass):
    name = "add_variables"
    follow_ons = ("add_loads_stores",)
    chance = 0.5

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        pointer_types = [
            (i, t) for i, t in ctx.types().items() if isinstance(t, tys.PointerType)
        ]
        for type_id, ptr_ty in pointer_types:
            if ptr_ty.storage is tys.StorageClass.FUNCTION and ctx.module.functions:
                function = rng.choice(ctx.module.functions)
                out.append(AddVariable(ids.take(), type_id, function.result_id))
            elif ptr_ty.storage is tys.StorageClass.PRIVATE:
                out.append(AddVariable(ids.take(), type_id, 0))
        rng.shuffle(out)
        return out


class PassSplitBlocks(FuzzerPass):
    name = "split_blocks"
    follow_ons = ("add_dead_blocks", "permute_blocks")
    chance = 0.3

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for inst in self._body_instructions(ctx):
            if inst.opcode in (Op.Phi, Op.Variable):
                continue
            out.append(SplitBlock(ids.take(), instruction_id=inst.result_id))
        for function in ctx.module.functions:
            for block in function.blocks:
                out.append(SplitBlock(ids.take(), block_label=block.label_id))
        rng.shuffle(out)
        return out[:12]


class PassAddDeadBlocks(FuzzerPass):
    name = "add_dead_blocks"
    follow_ons = ("kill_dead_branches", "add_loads_stores", "function_calls", "obfuscate")
    chance = 0.45

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        trues = ctx.known_true_ids()
        falses = ctx.known_false_ids()
        for function in ctx.module.functions:
            for block in function.blocks:
                if block.terminator is None or block.terminator.opcode is not Op.Branch:
                    continue
                negate = bool(falses) and rng.random() < 0.5
                condition_pool = falses if negate else trues
                if not condition_pool:
                    continue
                out.append(
                    AddDeadBlock(
                        ids.take(), block.label_id, rng.choice(condition_pool), negate
                    )
                )
        rng.shuffle(out)
        return out[:10]


class PassKillDeadBranches(FuzzerPass):
    name = "kill_dead_branches"
    follow_ons = ("split_blocks",)
    chance = 0.5

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for label in sorted(ctx.facts.dead_blocks):
            out.append(ReplaceBranchWithKill(label, use_unreachable=rng.random() < 0.3))
        rng.shuffle(out)
        return out


class PassAddLoadsStores(FuzzerPass):
    name = "add_loads_stores"
    follow_ons = ("add_synonyms", "replace_irrelevant")
    chance = 0.4

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for point in self._random_points(ctx, rng, 10):
            pointers = self._values_at(
                ctx, point, lambda _vid, ty: isinstance(ty, tys.PointerType)
            )
            if not pointers:
                continue
            pointer = rng.choice(pointers)
            choice = rng.random()
            if choice < 0.45:
                out.append(
                    AddLoad(ids.take(), pointer, point.anchor_id, point.block_label)
                )
            elif choice < 0.75:
                ptr_ty = ctx.value_type(pointer)
                assert isinstance(ptr_ty, tys.PointerType)
                values = self._values_of_type(ctx, point, ptr_ty.pointee)
                if values:
                    out.append(
                        AddStore(
                            pointer,
                            rng.choice(values),
                            point.anchor_id,
                            point.block_label,
                        )
                    )
            else:
                ptr_ty = ctx.value_type(pointer)
                assert isinstance(ptr_ty, tys.PointerType)
                chain = self._pick_chain(ctx, rng, ptr_ty)
                if chain is not None:
                    out.append(
                        AddAccessChain(
                            ids.take(),
                            pointer,
                            chain,
                            point.anchor_id,
                            point.block_label,
                        )
                    )
        return out

    def _pick_chain(self, ctx, rng, ptr_ty: tys.PointerType) -> list[int] | None:
        """Constant indices walking as deep as possible into the pointee."""
        current = ptr_ty.pointee
        chain: list[int] = []
        while current.is_composite() and (len(chain) < 2 or rng.random() < 0.7):
            count = tys.composite_member_count(current)
            index = rng.randrange(count)
            const_id = ctx.module.find_constant_id(
                ctx.module.find_type_id(tys.IntType()) or -1, index
            )
            if const_id is None:
                break
            chain.append(const_id)
            current = tys.composite_member_type(current, index)
        return chain or None


class PassAddSynonyms(FuzzerPass):
    name = "add_synonyms"
    follow_ons = ("replace_synonyms", "add_composites")
    chance = 0.45

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        int_type_id = ctx.module.find_type_id(tys.IntType())
        zero = (
            ctx.module.find_constant_id(int_type_id, 0) if int_type_id else None
        )
        one = ctx.module.find_constant_id(int_type_id, 1) if int_type_id else None
        for point in self._random_points(ctx, rng, 8):
            values = self._values_at(
                ctx,
                point,
                lambda _vid, ty: not isinstance(ty, (tys.VoidType, tys.FunctionType)),
            )
            if not values:
                continue
            value = rng.choice(values)
            value_ty = ctx.value_type(value)
            roll = rng.random()
            if roll < 0.35:
                # Bias toward copying existing copies: chains of OpCopyObject
                # are a feature real rewrite passes choke on.
                copies = [
                    v
                    for v in values
                    if (d := ctx.defs().get(v)) is not None
                    and d.opcode is Op.CopyObject
                ]
                source = rng.choice(copies) if copies and rng.random() < 0.6 else value
                out.append(
                    AddCopyObject(ids.take(), source, point.anchor_id, point.block_label)
                )
            elif isinstance(value_ty, tys.IntType):
                if roll < 0.55 and zero is not None:
                    out.append(
                        AddEquationInstruction(
                            [ids.take()],
                            "iadd-zero",
                            [value, zero],
                            anchor_id=point.anchor_id,
                            block_label=point.block_label,
                        )
                    )
                elif roll < 0.7 and one is not None:
                    out.append(
                        AddEquationInstruction(
                            [ids.take()],
                            "imul-one",
                            [value, one],
                            anchor_id=point.anchor_id,
                            block_label=point.block_label,
                        )
                    )
                else:
                    constants = self._values_at(
                        ctx,
                        point,
                        lambda vid, ty: isinstance(ty, tys.IntType)
                        and ctx.is_constant(vid),
                    )
                    if constants:
                        out.append(
                            AddEquationInstruction(
                                ids.take_many(2),
                                "iadd-isub",
                                [value, rng.choice(constants)],
                                anchor_id=point.anchor_id,
                                block_label=point.block_label,
                            )
                        )
            elif isinstance(value_ty, tys.FloatType):
                out.append(
                    AddEquationInstruction(
                        ids.take_many(2),
                        "fneg-fneg",
                        [value],
                        anchor_id=point.anchor_id,
                        block_label=point.block_label,
                    )
                )
            elif isinstance(value_ty, tys.BoolType):
                source = ctx.defs().get(value)
                form = "lognot-lognot"
                if source is not None and source.opcode.value.startswith(
                    ("OpSLess", "OpSGreater", "OpIEqual", "OpINotEqual")
                ) and rng.random() < 0.5:
                    form = "invert-compare"
                out.append(
                    AddEquationInstruction(
                        ids.take_many(2),
                        form,
                        [value],
                        anchor_id=point.anchor_id,
                        block_label=point.block_label,
                    )
                )
        # Free-form arithmetic in dead blocks, including trapping shapes.
        for point in self._random_points(ctx, rng, 4, dead_only=True):
            int_consts = self._values_at(
                ctx,
                point,
                lambda vid, ty: isinstance(ty, tys.IntType) and ctx.is_constant(vid),
            )
            if len(int_consts) >= 2:
                free_op = rng.choice(("OpSDiv", "OpSRem", "OpIMul", "OpIAdd"))
                divisor = rng.choice(int_consts)
                if free_op in ("OpSDiv", "OpSRem") and rng.random() < 0.5:
                    # Dead code may divide by zero; real compilers fold it
                    # anyway (and some crash doing so).
                    int_type_id = ctx.defs()[int_consts[0]].type_id
                    zero_const = ctx.module.find_constant_id(int_type_id, 0)
                    if zero_const is not None:
                        divisor = zero_const
                out.append(
                    AddEquationInstruction(
                        [ids.take()],
                        "free",
                        [rng.choice(int_consts), divisor],
                        free_op=free_op,
                        anchor_id=point.anchor_id,
                        block_label=point.block_label,
                    )
                )
        return out


class PassPermuteOperands(FuzzerPass):
    """Order-shuffling transformations: phi pairs and function parameters."""

    name = "permute_operands"
    follow_ons = ("swap_operands",)
    chance = 0.35

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for function in ctx.module.functions:
            for block in function.blocks:
                for phi in block.phis():
                    pairs = len(phi.phi_pairs())
                    if pairs >= 2:
                        out.append(
                            PermutePhiOperands(
                                phi.result_id, rng.randrange(1, pairs)
                            )
                        )
            if (
                len(function.params) >= 2
                and function.result_id != ctx.module.entry_point_id
            ):
                order = list(range(len(function.params)))
                rng.shuffle(order)
                out.append(
                    PermuteFunctionParameters(
                        function.result_id, order, ids.take()
                    )
                )
        rng.shuffle(out)
        return out[:5]


class PassAddComposites(FuzzerPass):
    name = "add_composites"
    follow_ons = ("replace_synonyms",)
    chance = 0.4

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        composite_types = [
            (i, t) for i, t in ctx.types().items() if t.is_composite()
        ]
        for point in self._random_points(ctx, rng, 6):
            if composite_types and rng.random() < 0.6:
                type_id, ty = rng.choice(composite_types)
                member_ids = []
                for i in range(tys.composite_member_count(ty)):
                    member_ty = tys.composite_member_type(ty, i)
                    options = self._values_of_type(ctx, point, member_ty)
                    if not options:
                        member_ids = []
                        break
                    member_ids.append(rng.choice(options))
                if member_ids:
                    out.append(
                        AddCompositeConstruct(
                            ids.take(),
                            type_id,
                            member_ids,
                            point.anchor_id,
                            point.block_label,
                        )
                    )
            else:
                composites = self._values_at(
                    ctx, point, lambda _vid, ty: ty.is_composite()
                )
                if composites:
                    composite = rng.choice(composites)
                    ty = ctx.value_type(composite)
                    assert ty is not None
                    index = rng.randrange(tys.composite_member_count(ty))
                    if rng.random() < 0.6:
                        out.append(
                            AddCompositeExtract(
                                ids.take(),
                                composite,
                                [index],
                                point.anchor_id,
                                point.block_label,
                            )
                        )
                    else:
                        member_ty = tys.composite_member_type(ty, index)
                        objects = self._values_of_type(ctx, point, member_ty)
                        if objects:
                            out.append(
                                AddCompositeInsert(
                                    ids.take(),
                                    composite,
                                    rng.choice(objects),
                                    index,
                                    point.anchor_id,
                                    point.block_label,
                                )
                            )
        return out


class PassReplaceSynonyms(FuzzerPass):
    name = "replace_synonyms"
    follow_ons = ()
    chance = 0.5

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for inst in self._body_instructions(ctx):
            if inst.opcode in (Op.Phi, Op.Variable):
                continue
            for slot in self._id_operand_slots(inst):
                current = int(inst.operands[slot])
                synonyms = ctx.facts.plain_synonyms_of(current)
                if synonyms:
                    out.append(
                        ReplaceIdWithSynonym(
                            inst.result_id, slot, rng.choice(synonyms)
                        )
                    )
        rng.shuffle(out)
        return out[:10]


class PassReplaceIrrelevant(FuzzerPass):
    name = "replace_irrelevant"
    follow_ons = ()
    chance = 0.5

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for inst in self._body_instructions(ctx):
            if inst.opcode in (Op.Phi, Op.Variable):
                continue
            for slot in self._id_operand_slots(inst):
                current = int(inst.operands[slot])
                qualifies = ctx.facts.is_irrelevant(current) or (
                    inst.result_id is not None
                    and ctx.facts.is_irrelevant_use(inst.result_id, slot)
                )
                if not qualifies:
                    continue
                current_ty = ctx.value_type(current)
                if current_ty is None:
                    continue
                point = InsertBefore(anchor_id=inst.result_id)
                options = self._values_of_type(ctx, point, current_ty)
                options = [o for o in options if o != current]
                if options:
                    out.append(
                        ReplaceIrrelevantId(inst.result_id, slot, rng.choice(options))
                    )
        rng.shuffle(out)
        return out[:8]


class PassObfuscate(FuzzerPass):
    name = "obfuscate"
    follow_ons = ("replace_synonyms",)
    chance = 0.4

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        uniforms = [
            inst.result_id
            for inst in ctx.module.global_variables()
            if str(inst.operands[0]) == "Uniform"
            and ctx.module.name_of(inst.result_id) in ctx.inputs
        ]
        int_consts = [
            inst
            for inst in ctx.module.global_insts
            if inst.opcode is Op.Constant
            and isinstance(ctx.types().get(inst.type_id), tys.IntType)
        ]
        float_consts = [
            inst
            for inst in ctx.module.global_insts
            if inst.opcode is Op.Constant
            and isinstance(ctx.types().get(inst.type_id), tys.FloatType)
        ]
        for inst in self._body_instructions(ctx):
            if inst.opcode in (Op.Phi, Op.Variable):
                continue
            for slot in self._id_operand_slots(inst):
                if rng.random() < 0.7:
                    continue
                current = int(inst.operands[slot])
                source = ctx.defs().get(current)
                if source is None:
                    continue
                if source.opcode in (Op.ConstantTrue, Op.ConstantFalse):
                    roll = rng.random()
                    if roll < 0.3 and uniforms:
                        out.append(
                            ReplaceConstantWithUniform(
                                inst.result_id, slot, rng.choice(uniforms), ids.take()
                            )
                        )
                    elif roll < 0.6 and int_consts:
                        out.append(
                            ObfuscateConstant(
                                inst.result_id,
                                slot,
                                "bool-int-eq",
                                ids.take(),
                                [rng.choice(int_consts).result_id],
                            )
                        )
                    elif float_consts:
                        out.append(
                            ObfuscateConstant(
                                inst.result_id,
                                slot,
                                "bool-float-eq",
                                ids.take(),
                                [rng.choice(float_consts).result_id],
                            )
                        )
                elif source.opcode is Op.Constant:
                    if uniforms and rng.random() < 0.4:
                        out.append(
                            ReplaceConstantWithUniform(
                                inst.result_id, slot, rng.choice(uniforms), ids.take()
                            )
                        )
                    elif rng.random() < 0.3:
                        # No matching uniform: mint one in sync with the
                        # input (§7 future work) and route the use through it.
                        source_ty = ctx.types().get(source.type_id)
                        kind = (
                            "int"
                            if isinstance(source_ty, tys.IntType)
                            else "float"
                            if isinstance(source_ty, tys.FloatType)
                            else None
                        )
                        if kind is not None:
                            uniform_id = ids.take()
                            out.append(
                                AddUniform(
                                    uniform_id,
                                    kind,
                                    f"_fz_u{uniform_id}",
                                    source.operands[0],
                                    ids.take(),
                                )
                            )
                            out.append(
                                ReplaceConstantWithUniform(
                                    inst.result_id, slot, uniform_id, ids.take()
                                )
                            )
                    elif isinstance(
                        ctx.types().get(source.type_id), tys.IntType
                    ) and len(int_consts) >= 1:
                        out.extend(
                            self._int_obfuscations(ctx, rng, ids, inst, slot, source)
                        )
                else:
                    # Wrap an arbitrary use in a constant select.
                    trues, falses = ctx.known_true_ids(), ctx.known_false_ids()
                    if not (trues or falses):
                        continue
                    current_ty = ctx.value_type(current)
                    if current_ty is None or isinstance(current_ty, tys.PointerType):
                        continue
                    point = InsertBefore(anchor_id=inst.result_id)
                    others = self._values_of_type(ctx, point, current_ty)
                    if not others:
                        continue
                    negate = bool(falses) and (not trues or rng.random() < 0.5)
                    pool = falses if negate else trues
                    if not pool:
                        continue
                    condition = rng.choice(pool)
                    out.append(
                        WrapInSelect(
                            inst.result_id,
                            slot,
                            ids.take(),
                            condition,
                            rng.choice(others),
                            negate,
                        )
                    )
        # Branch obfuscation.
        for function in ctx.module.functions:
            for block in function.blocks:
                if (
                    block.terminator is not None
                    and block.terminator.opcode is Op.Branch
                    and rng.random() < 0.3
                ):
                    bools = self._values_at(
                        ctx,
                        InsertBefore(block_label=block.label_id),
                        lambda _vid, ty: isinstance(ty, tys.BoolType),
                    )
                    if bools:
                        out.append(ObfuscateBranch(block.label_id, rng.choice(bools)))
        rng.shuffle(out)
        return out[:10]

    def _int_obfuscations(self, ctx, rng, ids, inst, slot, source):
        """`c` -> `c1 + c2` (possibly overflowing) or `c1 % c2`."""
        out = []
        value = int(source.operands[0])
        int_type_id = source.type_id

        def const_id(wanted: int) -> int | None:
            """Existing constant id, or queue an AddConstant candidate."""
            existing = ctx.module.find_constant_id(int_type_id, wanted)
            if existing is not None:
                return existing
            if not -(2**31) <= wanted < 2**31:
                return None
            fresh = ids.take()
            out.append(AddConstant(fresh, int_type_id, wanted))
            return fresh

        if rng.random() < 0.5:
            # An overflowing pair: c = wrap(big + (c - big)) where the raw sum
            # escapes i32 range (feeding saturating-fold bugs).
            big = 2**31 - 1 if value < 0 else -(2**31)
            partner = wrap_i32(value - big)
            if wrap_i32(big + partner) == value:
                c1, c2 = const_id(big), const_id(partner)
                if c1 is not None and c2 is not None:
                    out.append(
                        ObfuscateConstant(
                            inst.result_id, slot, "int-add-pair", ids.take(), [c1, c2]
                        )
                    )
        elif value != 0:
            # c = srem(d, m) with *mixed signs*: truncating remainder keeps
            # the dividend's sign while floor remainder follows the modulus,
            # so this shape distinguishes floor-folding compilers.
            magnitude = abs(value) + rng.randint(1, 9)
            if value > 0:
                modulus = -magnitude
                dividend = value + 2 * magnitude
            else:
                modulus = magnitude
                dividend = value - 2 * magnitude
            if -(2**31) <= dividend < 2**31 and srem(dividend, modulus) == value:
                c1, c2 = const_id(dividend), const_id(modulus)
                if c1 is not None and c2 is not None:
                    out.append(
                        ObfuscateConstant(
                            inst.result_id, slot, "int-srem-pair", ids.take(), [c1, c2]
                        )
                    )
        return out


class PassAddParameters(FuzzerPass):
    name = "add_parameters"
    follow_ons = ("replace_irrelevant", "function_calls")
    chance = 0.4

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        scalar_consts = [
            inst
            for inst in ctx.module.global_insts
            if op_info(inst.opcode).is_constant_decl and inst.opcode is not Op.Undef
        ]
        if not scalar_consts:
            return out
        for function in ctx.module.functions:
            if function.result_id == ctx.module.entry_point_id:
                continue
            const = rng.choice(scalar_consts)
            out.append(
                AddParameter(
                    function.result_id,
                    ids.take(),
                    const.type_id,
                    const.result_id,
                    ids.take(),
                )
            )
        rng.shuffle(out)
        return out[:4]


class PassAddFunctions(FuzzerPass):
    name = "add_functions"
    follow_ons = ("function_calls", "toggle_controls", "inline_functions")
    chance = 0.6
    max_applications = 2

    def __init__(self, donor_bank: "DonorBank") -> None:
        self.donor_bank = donor_bank

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for _ in range(2):
            donation = self.donor_bank.sample(rng)
            if donation is None:
                continue
            make_livesafe = donation.livesafe_eligible and rng.random() < 0.8
            donor_ids = donation.all_donor_ids()
            id_map = {donor_id: ids.take() for donor_id in donor_ids}
            livesafe_ids = (
                ids.take_many(donation.livesafe_id_need) if make_livesafe else []
            )
            out.append(
                AddFunction(
                    declarations=list(donation.declarations),
                    function_lines=list(donation.function_lines),
                    id_map=id_map,
                    make_livesafe=make_livesafe,
                    livesafe_ids=livesafe_ids,
                    name=donation.name,
                )
            )
        return out


class PassFunctionCalls(FuzzerPass):
    name = "function_calls"
    follow_ons = ("inline_functions", "replace_irrelevant")
    chance = 0.5

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        types = ctx.types()
        callable_live = [
            f for f in ctx.module.functions if ctx.facts.is_livesafe(f.result_id)
        ]
        all_functions = [
            f
            for f in ctx.module.functions
            if f.result_id != ctx.module.entry_point_id
        ]
        for point in self._random_points(ctx, rng, 6):
            located = point.resolve(ctx)
            if located is None:
                continue
            block_label = located[1].label_id
            dead = ctx.facts.is_dead_block(block_label)
            pool = all_functions if dead else callable_live
            if not pool:
                continue
            callee = rng.choice(pool)
            if dead and rng.random() < 0.3:
                # From dead blocks even recursion is fair game (§3.2): prefer
                # calling the function the dead block lives in.
                containing = located[0]
                if containing.result_id != ctx.module.entry_point_id:
                    callee = containing
            fn_ty = types.get(callee.function_type_id)
            if not isinstance(fn_ty, tys.FunctionType):
                continue
            args = []
            for param_ty in fn_ty.params:
                if isinstance(param_ty, tys.PointerType) and not dead:
                    options = [
                        v
                        for v in self._values_of_type(ctx, point, param_ty)
                        if ctx.facts.is_irrelevant_pointee(v)
                    ]
                else:
                    options = self._values_of_type(ctx, point, param_ty)
                    constants = [o for o in options if ctx.is_constant(o)]
                    if constants:
                        options = constants  # trivial constants first (§3.3)
                if not options:
                    args = None
                    break
                args.append(rng.choice(options))
            if args is not None:
                out.append(
                    FunctionCall(
                        ids.take(),
                        callee.result_id,
                        args,
                        point.anchor_id,
                        point.block_label,
                    )
                )
        return out


class PassInlineFunctions(FuzzerPass):
    name = "inline_functions"
    follow_ons = ("split_blocks", "permute_blocks")
    chance = 0.3
    max_applications = 2

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for caller in ctx.module.functions:
            for block in caller.blocks:
                for inst in block.instructions:
                    if inst.opcode is not Op.FunctionCall:
                        continue
                    callee_id = int(inst.operands[0])
                    if not ctx.module.has_function(callee_id):
                        continue
                    if callee_id == caller.result_id:
                        continue
                    callee = ctx.module.get_function(callee_id)
                    id_map = {
                        donor: ids.take()
                        for donor in callee_ids_requiring_fresh(callee)
                    }
                    out.append(
                        InlineFunction(
                            inst.result_id, id_map, ids.take(), ids.take()
                        )
                    )
        rng.shuffle(out)
        return out[:3]


class PassPermuteBlocks(FuzzerPass):
    name = "permute_blocks"
    follow_ons = ("propagate_up",)
    chance = 0.35

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for function in ctx.module.functions:
            for block in function.blocks[1:-1]:
                out.append(MoveBlockDown(block.label_id))
        rng.shuffle(out)
        return out[:8]


class PassPropagateUp(FuzzerPass):
    name = "propagate_up"
    follow_ons = ("replace_synonyms",)
    chance = 0.35

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for function in ctx.module.functions:
            for block in function.blocks[1:]:
                preds = function.predecessors(block.label_id)
                if not preds or block.label_id in preds:
                    continue
                for inst in block.instructions:
                    if inst.opcode is Op.Phi or inst.result_id is None:
                        continue
                    fresh = {pred: ids.take() for pred in preds}
                    out.append(PropagateInstructionUp(inst.result_id, fresh))
                    break  # one candidate per block keeps sweeps cheap
        rng.shuffle(out)
        return out[:6]


class PassWrapSelections(FuzzerPass):
    name = "wrap_selections"
    follow_ons = ("permute_blocks",)
    chance = 0.3

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        trues = ctx.known_true_ids()
        falses = ctx.known_false_ids()
        for function in ctx.module.functions:
            for block in function.blocks[1:]:
                negate = bool(falses) and rng.random() < 0.5
                pool = falses if negate else trues
                if not pool:
                    continue
                out.append(
                    WrapRegionInSelection(
                        ids.take(), block.label_id, rng.choice(pool), negate
                    )
                )
        rng.shuffle(out)
        return out[:5]


class PassToggleControls(FuzzerPass):
    name = "toggle_controls"
    follow_ons = ("inline_functions",)
    chance = 0.4

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for function in ctx.module.functions:
            choices = [c for c in FUNCTION_CONTROLS if c != function.control]
            out.append(ToggleFunctionControl(function.result_id, rng.choice(choices)))
        rng.shuffle(out)
        return out[:4]


class PassSwapOperands(FuzzerPass):
    name = "swap_operands"
    follow_ons = ()
    chance = 0.3

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for inst in self._body_instructions(ctx):
            if inst.opcode in COMMUTATIVE_OPS:
                out.append(SwapCommutableOperands(inst.result_id))
        rng.shuffle(out)
        return out[:6]



class PassOutlineFunctions(FuzzerPass):
    """Extract instruction runs into fresh functions (the inverse of
    inlining); outlined functions feed the call/inline interaction chain."""

    name = "outline_functions"
    follow_ons = ("toggle_controls", "inline_functions", "add_parameters")
    chance = 0.3
    max_applications = 2

    def candidates(self, ctx, rng, ids):
        out: list[Transformation] = []
        for function in ctx.module.functions:
            for block in function.blocks:
                with_results = [
                    i for i in block.instructions
                    if i.result_id is not None
                    and i.opcode not in (Op.Phi, Op.Variable)
                ]
                if len(with_results) < 2:
                    continue
                start = rng.randrange(len(with_results))
                end = min(len(with_results) - 1, start + rng.randint(0, 3))
                first = with_results[start]
                last = with_results[end]
                span = block.instructions[
                    block.instructions.index(first) : block.instructions.index(last) + 1
                ]
                defined = [i.result_id for i in span if i.result_id is not None]
                id_map = {d: ids.take() for d in defined}
                # Over-provision parameters: every function-local id any span
                # instruction uses might need one; extras are ignored.
                param_map = {}
                for inst in span:
                    for used in inst.used_ids():
                        if used not in defined and used not in param_map:
                            param_map[used] = ids.take()
                out.append(
                    OutlineFunction(
                        first_id=first.result_id,
                        last_id=last.result_id,
                        fresh_function_id=ids.take(),
                        fresh_label_id=ids.take(),
                        fresh_function_type_id=ids.take(),
                        id_map=id_map,
                        param_map=param_map,
                    )
                )
        rng.shuffle(out)
        return out[:3]


# -- donor bank -------------------------------------------------------------------


@dataclass
class Donation:
    """A serialized donor function ready for ``AddFunction``."""

    name: str
    declarations: list[str]
    function_lines: list[str]
    donor_ids: list[int]
    livesafe_eligible: bool
    livesafe_id_need: int

    def all_donor_ids(self) -> list[int]:
        return list(self.donor_ids)


class DonorBank:
    """Prepares donor functions from donor modules (§3.2's donor corpus).

    Serialization happens once, up front; ``AddFunction`` instances embed the
    text so donors are not needed at reduction time.
    """

    def __init__(self, donor_modules) -> None:
        self.donations: list[Donation] = []
        for program in donor_modules:
            module = program.module
            for function in module.functions:
                if function.result_id == module.entry_point_id:
                    continue
                donation = self._prepare(program.name, module, function)
                if donation is not None:
                    self.donations.append(donation)

    def sample(self, rng: random.Random) -> Donation | None:
        if not self.donations:
            return None
        return rng.choice(self.donations)

    def _prepare(self, donor_name: str, module, function) -> Donation | None:
        # Collect the global declarations the function needs, in order.
        needed: set[int] = set()
        for inst in function.all_instructions():
            needed.update(inst.used_ids())
        decls: list[Instruction] = []
        changed = True
        global_by_id = {
            inst.result_id: inst
            for inst in module.global_insts
            if inst.result_id is not None
        }
        while changed:
            changed = False
            for gid, inst in global_by_id.items():
                if gid in needed:
                    for used in inst.used_ids():
                        if used not in needed:
                            needed.add(used)
                            changed = True
        for inst in module.global_insts:
            if inst.result_id in needed:
                if inst.opcode is Op.Variable:
                    return None  # functions touching module globals can't donate
                decls.append(inst)

        obstacles = livesafe_obstacles(function)
        livesafe_eligible = not obstacles
        pseudo = module.id_bound
        extra_decls: list[Instruction] = []
        if livesafe_eligible:
            extra_decls, pseudo = self._livesafe_decls(decls, pseudo)

        all_decls = decls + extra_decls
        declaration_lines = [format_instruction(i) for i in all_decls]
        function_lines = [format_instruction(function.inst)]
        function_lines += [format_instruction(p) for p in function.params]
        for block in function.blocks:
            function_lines.append(f"%{block.label_id} = OpLabel")
            function_lines += [format_instruction(i) for i in block.all_instructions()]
        function_lines.append("OpFunctionEnd")

        donor_ids = [i.result_id for i in all_decls if i.result_id is not None]
        donor_ids += [
            i.result_id for i in function.all_instructions() if i.result_id is not None
        ]
        return Donation(
            name=f"{donor_name}_{module.name_of(function.result_id) or function.result_id}",
            declarations=declaration_lines,
            function_lines=function_lines,
            donor_ids=donor_ids,
            livesafe_eligible=livesafe_eligible,
            livesafe_id_need=count_fresh_ids_needed(function) if livesafe_eligible else 0,
        )

    def _livesafe_decls(
        self, decls: list[Instruction], pseudo: int
    ) -> tuple[list[Instruction], int]:
        """Synthesize bool/int/pointer types and 0/1/8 constants with
        donor-local pseudo ids, reusing declarations already present."""
        extra: list[Instruction] = []

        def find(opcode: Op, operands: list | None = None, type_id: int | None = None):
            for inst in decls + extra:
                if inst.opcode is not opcode:
                    continue
                if operands is not None and inst.operands != operands:
                    continue
                if type_id is not None and inst.type_id != type_id:
                    continue
                return inst.result_id
            return None

        def ensure(opcode: Op, operands: list, type_id: int | None = None) -> int:
            nonlocal pseudo
            existing = find(opcode, operands, type_id)
            if existing is not None:
                return existing
            inst = Instruction(opcode, pseudo, type_id, list(operands))
            pseudo += 1
            extra.append(inst)
            return inst.result_id  # type: ignore[return-value]

        bool_ty = ensure(Op.TypeBool, [])
        int_ty = find(Op.TypeInt, [32, True]) or ensure(Op.TypeInt, [32, True])
        ensure(Op.TypePointer, ["Function", int_ty])
        ensure(Op.Constant, [0], int_ty)
        ensure(Op.Constant, [1], int_ty)
        ensure(Op.Constant, [8], int_ty)
        _ = bool_ty
        return extra, pseudo


def build_passes(donor_bank: DonorBank) -> list[FuzzerPass]:
    """All fuzzer passes, donor-dependent ones included."""
    return [
        PassAddTypesAndConstants(),
        PassAddVariables(),
        PassSplitBlocks(),
        PassAddDeadBlocks(),
        PassKillDeadBranches(),
        PassAddLoadsStores(),
        PassAddSynonyms(),
        PassPermuteOperands(),
        PassOutlineFunctions(),
        PassAddComposites(),
        PassReplaceSynonyms(),
        PassReplaceIrrelevant(),
        PassObfuscate(),
        PassAddParameters(),
        PassAddFunctions(donor_bank),
        PassFunctionCalls(),
        PassInlineFunctions(),
        PassPermuteBlocks(),
        PassPropagateUp(),
        PassWrapSelections(),
        PassToggleControls(),
        PassSwapOperands(),
    ]
