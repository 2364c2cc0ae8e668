"""Core IR data structures: instructions, blocks, functions, modules.

The design follows SPIR-V's shape: a module is a list of global instructions
(types, constants, module-scope variables) followed by function definitions,
each of which is a list of basic blocks in an order that must respect
dominance.  Every value-producing instruction has a unique *result id*; the
module tracks an *id bound* from which fresh ids are allocated.

Mutability: blocks, functions and module-level lists are mutable on purpose
— transformations edit function bodies in place — but :meth:`Module.clone`
provides a copy so that callers can transform copies while keeping
originals pristine.  The copy rebuilds every function body, so it costs
O(function code); it carries over the derived caches (fingerprint, digest,
type table, and each function's CFG memo) that are still valid, so a clone
never recomputes them.

Global declarations are immutable values: once a global
:class:`Instruction` is in a module it is never edited in place, so clones
share the declaration objects and copy only the ``global_insts`` list.
The list changes in exactly two ways — :meth:`Module.add_global` appends,
and :meth:`Module.set_global` replaces a slot with an edited copy — and
both bump the module's ``_globals_version``.

Derived views — :meth:`Module.fingerprint` and :meth:`Module.content_digest`
— are cached per module version (bumped by :meth:`Module.touch`);
:meth:`Module.type_table` and :meth:`Module.typed_globals` depend on the
global section alone and are cached per ``_globals_version``, so
function-body edits and ``touch`` keep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

from repro.ir.opcodes import OP_INFO, Op, OperandKind, op_info
from repro.ir import types as tys

Operand = int | float | bool | str


class IrError(Exception):
    """Raised on structurally invalid IR constructions or lookups."""


class _IdPlan(NamedTuple):
    """Where an opcode keeps its operand ids: ``positions`` within its
    ``fixed`` single slots, then (``tail_ids``) every operand past them;
    ``all_ids`` when every operand is an id.  ``fixed``, ``max_count`` and
    ``even_tail`` bound the operand counts that
    :meth:`Instruction.operand_slots` accepts (a rest kind is always last).
    """

    positions: tuple[int, ...]
    fixed: int
    tail_ids: bool
    all_ids: bool
    max_count: int | None
    even_tail: bool

    @staticmethod
    def of(opcode: Op) -> "_IdPlan":
        kinds = op_info(opcode).operands
        single = (OperandKind.ID, OperandKind.LITERAL)
        rest = kinds[-1] if kinds and kinds[-1] not in single else None
        fixed = kinds[:-1] if rest is not None else kinds
        tail_ids = rest is not None and rest is not OperandKind.LITERAL_REST
        return _IdPlan(
            positions=tuple(i for i, k in enumerate(fixed) if k is OperandKind.ID),
            fixed=len(fixed),
            tail_ids=tail_ids,
            all_ids=OperandKind.LITERAL not in fixed and (rest is None or tail_ids),
            max_count=(
                len(fixed) if rest is None
                else len(fixed) + 1 if rest is OperandKind.OPTIONAL_ID
                else None
            ),
            even_tail=rest is OperandKind.PHI_REST,
        )


#: Each opcode's id plan, keyed by the opcode's value (a string, whose
#: hash is cached, unlike an enum member's).
_ID_PLANS: dict[str, _IdPlan] = {op.value: _IdPlan.of(op) for op in Op}


@dataclass
class Instruction:
    """A single IR instruction.

    ``operands`` stores ids and literals flattened, in signature order; for
    ``OpPhi`` the operands are ``[value_id, pred_block_id, ...]`` pairs.
    """

    opcode: Op
    result_id: int | None = None
    type_id: int | None = None
    operands: list[Operand] = field(default_factory=list)

    def __post_init__(self) -> None:
        info = OP_INFO[self.opcode]
        if info.has_result and self.result_id is None:
            raise IrError(f"{self.opcode} requires a result id")
        if not info.has_result and self.result_id is not None:
            raise IrError(f"{self.opcode} must not have a result id")
        if info.has_type and self.type_id is None:
            raise IrError(f"{self.opcode} requires a result type id")
        if not info.has_type and self.type_id is not None:
            raise IrError(f"{self.opcode} must not have a result type id")

    # -- operand introspection -------------------------------------------------

    def operand_slots(self) -> list[tuple[OperandKind, Operand]]:
        """Pair each operand with its :class:`OperandKind` from the signature."""
        info = op_info(self.opcode)
        slots: list[tuple[OperandKind, Operand]] = []
        kinds = info.operands
        i = 0
        for kind in kinds:
            if kind in (OperandKind.ID, OperandKind.LITERAL):
                if i >= len(self.operands):
                    raise IrError(f"{self.opcode}: missing operand {i}")
                slots.append((kind, self.operands[i]))
                i += 1
            elif kind is OperandKind.OPTIONAL_ID:
                if i < len(self.operands):
                    slots.append((OperandKind.ID, self.operands[i]))
                    i += 1
            elif kind is OperandKind.ID_REST:
                for operand in self.operands[i:]:
                    slots.append((OperandKind.ID, operand))
                i = len(self.operands)
            elif kind is OperandKind.LITERAL_REST:
                for operand in self.operands[i:]:
                    slots.append((OperandKind.LITERAL, operand))
                i = len(self.operands)
            elif kind is OperandKind.PHI_REST:
                rest = self.operands[i:]
                if len(rest) % 2 != 0:
                    raise IrError("OpPhi operands must come in pairs")
                for operand in rest:
                    slots.append((OperandKind.ID, operand))
                i = len(self.operands)
        if i != len(self.operands):
            raise IrError(f"{self.opcode}: too many operands")
        return slots

    def used_ids(self) -> list[int]:
        """All ids referenced by this instruction's operands and type."""
        ids = self.operand_ids()
        if self.type_id is not None:
            ids.append(int(self.type_id))
        return ids

    def operand_ids(self) -> list[int]:
        """The ids in this instruction's operand slots (type id excluded),
        read through its opcode's :class:`_IdPlan`.  A malformed operand
        count takes the :meth:`operand_slots` path, which raises."""
        positions, fixed, tail_ids, all_ids, max_count, even_tail = _ID_PLANS[
            self.opcode._value_
        ]
        operands = self.operands
        count = len(operands)
        if count != fixed and (
            count < fixed
            or (max_count is not None and count > max_count)
            or (even_tail and (count - fixed) % 2)
        ):
            return [
                int(operand)
                for kind, operand in self.operand_slots()
                if kind is OperandKind.ID
            ]
        if all_ids:
            return list(map(int, operands))
        ids = [int(operands[i]) for i in positions]
        if tail_ids and count > fixed:
            ids.extend(map(int, operands[fixed:]))
        return ids

    def remap_ids(self, mapping: dict[int, int]) -> None:
        """Rewrite ids (operands, type, and result) through *mapping* in place.

        Ids absent from *mapping* are left unchanged.
        """
        info = op_info(self.opcode)
        new_operands: list[Operand] = []
        i = 0
        for kind in info.operands:
            if kind is OperandKind.ID:
                new_operands.append(mapping.get(int(self.operands[i]), self.operands[i]))
                i += 1
            elif kind is OperandKind.LITERAL:
                new_operands.append(self.operands[i])
                i += 1
            elif kind in (OperandKind.ID_REST, OperandKind.PHI_REST, OperandKind.OPTIONAL_ID):
                for operand in self.operands[i:]:
                    new_operands.append(mapping.get(int(operand), operand))
                i = len(self.operands)
            elif kind is OperandKind.LITERAL_REST:
                new_operands.extend(self.operands[i:])
                i = len(self.operands)
        self.operands = new_operands
        if self.type_id is not None:
            self.type_id = mapping.get(self.type_id, self.type_id)
        if self.result_id is not None:
            self.result_id = mapping.get(self.result_id, self.result_id)

    def replace_uses(self, old_id: int, new_id: int) -> bool:
        """Replace operand (not result/type) uses of *old_id* with *new_id*.

        Returns True when at least one use was replaced.  For ``OpPhi`` both
        value and predecessor operands are considered uses; callers replacing
        only value operands should edit ``operands`` directly.
        """
        info = op_info(self.opcode)
        changed = False
        i = 0
        for kind in info.operands:
            if kind is OperandKind.ID:
                if int(self.operands[i]) == old_id:
                    self.operands[i] = new_id
                    changed = True
                i += 1
            elif kind is OperandKind.LITERAL:
                i += 1
            elif kind in (OperandKind.ID_REST, OperandKind.PHI_REST, OperandKind.OPTIONAL_ID):
                for j in range(i, len(self.operands)):
                    if int(self.operands[j]) == old_id:
                        self.operands[j] = new_id
                        changed = True
                i = len(self.operands)
            elif kind is OperandKind.LITERAL_REST:
                i = len(self.operands)
        return changed

    def phi_pairs(self) -> list[tuple[int, int]]:
        """Return (value id, predecessor block id) pairs of an ``OpPhi``."""
        if self.opcode is not Op.Phi:
            raise IrError("phi_pairs on non-phi instruction")
        ops = self.operands
        return [(int(ops[i]), int(ops[i + 1])) for i in range(0, len(ops), 2)]

    def clone(self) -> "Instruction":
        # Cloning a validated instruction cannot produce an invalid one, so
        # skip ``__init__``/``__post_init__`` — this is the hottest
        # allocation site in the probe path (every probe clones the module).
        new = object.__new__(Instruction)
        new.opcode = self.opcode
        new.result_id = self.result_id
        new.type_id = self.type_id
        new.operands = list(self.operands)
        return new

    def key(self) -> tuple:
        """Structural identity key (used for equality in tests)."""
        return (self.opcode, self.result_id, self.type_id, tuple(self.operands))

    def __str__(self) -> str:  # pragma: no cover - cosmetic; printer is canonical
        from repro.ir.printer import format_instruction

        return format_instruction(self)


@dataclass
class Block:
    """A basic block: a label id, body instructions, and one terminator."""

    label_id: int
    instructions: list[Instruction] = field(default_factory=list)
    terminator: Instruction | None = None

    def successors(self) -> list[int]:
        """Label ids of successor blocks, in terminator operand order."""
        term = self.terminator
        if term is None:
            return []
        if term.opcode is Op.Branch:
            return [int(term.operands[0])]
        if term.opcode is Op.BranchConditional:
            return [int(term.operands[1]), int(term.operands[2])]
        return []

    def phis(self) -> list[Instruction]:
        return [inst for inst in self.instructions if inst.opcode is Op.Phi]

    def non_phi_instructions(self) -> list[Instruction]:
        return [inst for inst in self.instructions if inst.opcode is not Op.Phi]

    def all_instructions(self) -> Iterator[Instruction]:
        """Body instructions followed by the terminator (if set)."""
        yield from self.instructions
        if self.terminator is not None:
            yield self.terminator

    def clone(self) -> "Block":
        new = object.__new__(Block)
        new.label_id = self.label_id
        new.instructions = [inst.clone() for inst in self.instructions]
        new.terminator = self.terminator.clone() if self.terminator else None
        return new


@dataclass
class Function:
    """A function: its ``OpFunction`` instruction, parameters, and blocks.

    ``_cfg_memo`` is ``(shape, analysis)`` from the last
    :meth:`repro.ir.analysis.cfg.Cfg.build` over this function, where
    *shape* is each block's label and successor labels in block order; the
    build reuses *analysis* while the shape is unchanged.  The analysis is
    never mutated, so clones share the memo.
    """

    inst: Instruction
    params: list[Instruction] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    _cfg_memo: "tuple[tuple, tuple] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def result_id(self) -> int:
        assert self.inst.result_id is not None
        return self.inst.result_id

    @property
    def control(self) -> str:
        return str(self.inst.operands[0])

    @control.setter
    def control(self, value: str) -> None:
        self.inst.operands[0] = value

    @property
    def function_type_id(self) -> int:
        return int(self.inst.operands[1])

    @property
    def return_type_id(self) -> int:
        assert self.inst.type_id is not None
        return self.inst.type_id

    def entry_block(self) -> Block:
        if not self.blocks:
            raise IrError(f"function %{self.result_id} has no blocks")
        return self.blocks[0]

    def block(self, label_id: int) -> Block:
        for block in self.blocks:
            if block.label_id == label_id:
                return block
        raise IrError(f"no block %{label_id} in function %{self.result_id}")

    def has_block(self, label_id: int) -> bool:
        return any(block.label_id == label_id for block in self.blocks)

    def block_index(self, label_id: int) -> int:
        for i, block in enumerate(self.blocks):
            if block.label_id == label_id:
                return i
        raise IrError(f"no block %{label_id} in function %{self.result_id}")

    def all_instructions(self) -> Iterator[Instruction]:
        yield self.inst
        yield from self.params
        for block in self.blocks:
            yield Instruction(Op.Label, block.label_id)
            yield from block.all_instructions()

    def predecessors(self, label_id: int) -> list[int]:
        """Label ids of blocks that branch to *label_id*, in block order."""
        return [b.label_id for b in self.blocks if label_id in b.successors()]

    def clone(self) -> "Function":
        new = object.__new__(Function)
        new.inst = self.inst.clone()
        new.params = [p.clone() for p in self.params]
        new.blocks = [b.clone() for b in self.blocks]
        new._cfg_memo = self._cfg_memo
        return new

    def __getstate__(self) -> dict:
        # The CFG memo is derived state: leave it out of the modules sent to
        # probe workers (the receiver rebuilds it on first use).
        return {**self.__dict__, "_cfg_memo": None}


def evaluate_constant(defs: dict[int, Instruction], const_id: int) -> object:
    """Evaluate constant *const_id* through the def map *defs* (see
    :meth:`Module.constant_value`)."""
    inst = defs.get(const_id)
    if inst is None:
        raise IrError(f"no definition for %{const_id}")
    if inst.opcode is Op.ConstantTrue:
        return True
    if inst.opcode is Op.ConstantFalse:
        return False
    if inst.opcode is Op.Constant:
        return inst.operands[0]
    if inst.opcode is Op.ConstantComposite:
        return [evaluate_constant(defs, int(m)) for m in inst.operands]
    raise IrError(f"%{const_id} is not a constant with a known value")


#: A result id paired with the structural type of the value it names, or
#: None when it names no typed value (a type declaration, or a result whose
#: type id is missing or undeclared).
TypedId = tuple[int, "tys.Type | None"]


def typed_id(inst: Instruction, table: dict[int, tys.Type]) -> TypedId:
    """*inst*'s result id and value type, looked up in type table *table*."""
    if inst.type_id is None or op_info(inst.opcode).is_type_decl:
        return inst.result_id, None
    return inst.result_id, table.get(inst.type_id)


def is_constant_decl(inst: Instruction | None) -> bool:
    """True when *inst* declares a constant with a known value (not
    ``OpUndef``)."""
    if inst is None:
        return False
    return op_info(inst.opcode).is_constant_decl and inst.opcode is not Op.Undef


@dataclass
class Module:
    """A whole IR module.

    ``global_insts`` holds types, constants and module-scope variables, in
    declaration order (a declaration may only reference earlier declarations).
    ``names`` maps ids to debug names; uniform/input/output variables are bound
    to interpreter inputs and outputs by name.
    """

    id_bound: int = 1
    global_insts: list[Instruction] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    entry_point_id: int | None = None
    entry_point_name: str = "main"
    names: dict[int, str] = field(default_factory=dict)
    #: Mutation counter guarding the fingerprint/digest caches below.  Code
    #: that edits the module structurally outside the helpers that already
    #: call :meth:`touch` (``add_global``, ``set_global``,
    #: ``map_instructions``, the transformation machinery via
    #: ``Context.invalidate``, pass pipelines) must call :meth:`touch` before
    #: the next ``fingerprint`` / ``content_digest`` read.
    _version: int = field(default=0, repr=False, compare=False)
    #: Global-section counter guarding the type-table cache: bumped only by
    #: :meth:`add_global` and :meth:`set_global`, the two ways the global
    #: section may change.
    _globals_version: int = field(default=0, repr=False, compare=False)
    _fingerprint_cache: "tuple[int, tuple] | None" = field(
        default=None, repr=False, compare=False
    )
    _digest_cache: "tuple[int, str] | None" = field(
        default=None, repr=False, compare=False
    )
    _type_table_cache: "tuple[int, dict[int, tys.Type]] | None" = field(
        default=None, repr=False, compare=False
    )
    _typed_globals_cache: "tuple[int, list[TypedId]] | None" = field(
        default=None, repr=False, compare=False
    )

    # -- id management ---------------------------------------------------------

    def fresh_id(self) -> int:
        """Allocate and return a new unused id."""
        new_id = self.id_bound
        self.id_bound += 1
        return new_id

    def fresh_ids(self, count: int) -> list[int]:
        return [self.fresh_id() for _ in range(count)]

    def claim_id(self, wanted: int) -> int:
        """Mark externally chosen id *wanted* as used, growing the bound.

        Transformations record their fresh ids explicitly (a design principle
        from the paper); on application they claim those ids.  Raises
        :class:`IrError` if the id already names something.  Claiming an id
        at or above the bound costs O(1) (see :meth:`is_fresh`).
        """
        if not self.is_fresh(wanted):
            raise IrError(f"id %{wanted} is not fresh")
        self.id_bound = max(self.id_bound, wanted + 1)
        return wanted

    def is_fresh(self, candidate: int) -> bool:
        """True when *candidate* is positive and defined nowhere in the module.

        Every defined id lies below ``id_bound`` (the validator's
        ``check_id_bound`` rule), so an id at or above the bound is fresh
        without a walk; only ids below it consult :meth:`def_map`.
        """
        if candidate < 1:
            return False
        return candidate >= self.id_bound or candidate not in self.def_map()

    # -- traversal ---------------------------------------------------------------

    def all_instructions(self) -> Iterator[Instruction]:
        yield from self.global_insts
        for function in self.functions:
            yield from function.all_instructions()

    def instruction_count(self) -> int:
        """Total instruction count (labels and terminators included).

        This is the size metric used for reduction quality (RQ2).
        """
        return sum(1 for _ in self.all_instructions())

    def def_map(self) -> dict[int, Instruction]:
        """Map every defined result id to its defining instruction.

        Block labels map to synthetic ``OpLabel`` instructions.
        """
        # A flat walk in ``all_instructions`` order (this runs on every
        # transformation context): ``count`` entries that collapse into a
        # smaller map mean a duplicate, which the slow walk then names.
        defs: dict[int, Instruction] = {}
        count = 0
        for inst in self.global_insts:
            if inst.result_id is not None:
                defs[inst.result_id] = inst
                count += 1
        for function in self.functions:
            defs[function.inst.result_id] = function.inst
            count += 1
            for param in function.params:
                if param.result_id is not None:
                    defs[param.result_id] = param
                    count += 1
            for block in function.blocks:
                # The synthetic label, built the way ``Instruction.clone``
                # builds one: a label needs no ``__post_init__`` checks.
                label = object.__new__(Instruction)
                label.opcode = Op.Label
                label.result_id = block.label_id
                label.type_id = None
                label.operands = []
                defs[block.label_id] = label
                count += 1
                for inst in block.instructions:
                    if inst.result_id is not None:
                        defs[inst.result_id] = inst
                        count += 1
                term = block.terminator
                if term is not None and term.result_id is not None:
                    defs[term.result_id] = term
                    count += 1
        if count != len(defs):
            self._raise_duplicate_definition()
        return defs

    def _raise_duplicate_definition(self) -> None:
        """Raise for the first id :meth:`all_instructions` defines twice."""
        seen: set[int] = set()
        for inst in self.all_instructions():
            if inst.result_id is not None:
                if inst.result_id in seen:
                    raise IrError(f"duplicate definition of %{inst.result_id}")
                seen.add(inst.result_id)
        raise AssertionError("def_map counted a duplicate that is not there")

    def get_instruction(self, result_id: int) -> Instruction:
        inst = self.def_map().get(result_id)
        if inst is None:
            raise IrError(f"no definition for %{result_id}")
        return inst

    def has_id(self, result_id: int) -> bool:
        return result_id in self.def_map()

    def get_function(self, function_id: int) -> Function:
        for function in self.functions:
            if function.result_id == function_id:
                return function
        raise IrError(f"no function %{function_id}")

    def has_function(self, function_id: int) -> bool:
        return any(f.result_id == function_id for f in self.functions)

    def entry_function(self) -> Function:
        if self.entry_point_id is None:
            raise IrError("module has no entry point")
        return self.get_function(self.entry_point_id)

    def containing_function(self, result_id: int) -> Function | None:
        """The function whose body (params/labels/instructions) defines *result_id*."""
        for function in self.functions:
            for inst in function.all_instructions():
                if inst.result_id == result_id:
                    return function
        return None

    def containing_block(self, result_id: int) -> tuple[Function, Block] | None:
        """Locate the block whose body or terminator defines *result_id*."""
        for function in self.functions:
            for block in function.blocks:
                for inst in block.instructions:
                    if inst.result_id == result_id:
                        return function, block
        return None

    # -- types and constants -------------------------------------------------------

    def type_table(self) -> dict[int, tys.Type]:
        """Structural types for every ``OpType*`` declaration.

        Cached per :attr:`_globals_version`: the table depends on the global
        section alone, so :meth:`touch` keeps it and repeated calls between
        global-section edits return the same dict, which callers must treat
        as read-only.
        """
        cached = self._type_table_cache
        if cached is not None and cached[0] == self._globals_version:
            return cached[1]
        table: dict[int, tys.Type] = {}
        for inst in self.global_insts:
            op = inst.opcode
            rid = inst.result_id
            if op is Op.TypeVoid:
                table[rid] = tys.VoidType()
            elif op is Op.TypeBool:
                table[rid] = tys.BoolType()
            elif op is Op.TypeInt:
                table[rid] = tys.IntType(int(inst.operands[0]), bool(inst.operands[1]))
            elif op is Op.TypeFloat:
                table[rid] = tys.FloatType(int(inst.operands[0]))
            elif op is Op.TypeVector:
                table[rid] = tys.VectorType(
                    table[int(inst.operands[0])], int(inst.operands[1])
                )
            elif op is Op.TypeArray:
                table[rid] = tys.ArrayType(
                    table[int(inst.operands[0])], int(inst.operands[1])
                )
            elif op is Op.TypeStruct:
                table[rid] = tys.StructType(
                    tuple(table[int(m)] for m in inst.operands)
                )
            elif op is Op.TypePointer:
                table[rid] = tys.PointerType(
                    tys.STORAGE_BY_NAME[str(inst.operands[0])],
                    table[int(inst.operands[1])],
                )
            elif op is Op.TypeFunction:
                table[rid] = tys.FunctionType(
                    table[int(inst.operands[0])],
                    tuple(table[int(p)] for p in inst.operands[1:]),
                )
        self._type_table_cache = (self._globals_version, table)
        return table

    def typed_globals(self) -> "list[TypedId]":
        """``(id, value type or None)`` of every global declaration with a
        result id, in declaration order (see :func:`typed_id`).

        Cached per :attr:`_globals_version` like :meth:`type_table`; callers
        must treat the list as read-only.
        """
        cached = self._typed_globals_cache
        if cached is not None and cached[0] == self._globals_version:
            return cached[1]
        table = self.type_table()
        typed = [
            typed_id(inst, table)
            for inst in self.global_insts
            if inst.result_id is not None
        ]
        self._typed_globals_cache = (self._globals_version, typed)
        return typed

    def type_of(self, value_id: int) -> tys.Type:
        """Structural type of the value produced by *value_id*."""
        inst = self.get_instruction(value_id)
        table = self.type_table()
        if inst.opcode is Op.Label:
            raise IrError(f"%{value_id} is a label, not a value")
        if inst.type_id is None:
            if inst.result_id in table:
                raise IrError(f"%{value_id} is a type, not a value")
            raise IrError(f"%{value_id} has no type")
        return table[inst.type_id]

    def find_type_id(self, wanted: tys.Type) -> int | None:
        """Result id of the declaration of structural type *wanted*, if any."""
        for rid, ty in self.type_table().items():
            if ty == wanted:
                return rid
        return None

    def find_constant_id(self, type_id: int, value: Operand) -> int | None:
        """Id of a scalar constant of *type_id* with literal *value*, if any."""
        for inst in self.global_insts:
            if inst.type_id != type_id:
                continue
            if inst.opcode is Op.Constant and inst.operands[0] == value:
                return inst.result_id
            if inst.opcode is Op.ConstantTrue and value is True:
                return inst.result_id
            if inst.opcode is Op.ConstantFalse and value is False:
                return inst.result_id
        return None

    def constant_value(self, const_id: int) -> object:
        """Evaluate a constant instruction to a Python value.

        Composites evaluate to lists.  Raises :class:`IrError` for non-constant
        ids (including ``OpUndef``, whose value is unspecified).
        """
        return evaluate_constant(self.def_map(), const_id)

    def is_constant(self, result_id: int) -> bool:
        try:
            inst = self.get_instruction(result_id)
        except IrError:
            return False
        return is_constant_decl(inst)

    # -- global section editing ------------------------------------------------

    def add_global(self, inst: Instruction) -> int:
        """Append a global declaration, returning its result id.

        The only way to add a global: it bumps the module and global-section
        versions, so the cached type table (and fingerprint/digest) can never
        go stale.  *inst* must not be edited afterwards.
        """
        self.global_insts.append(inst)
        assert inst.result_id is not None
        self.id_bound = max(self.id_bound, inst.result_id + 1)
        self._globals_version += 1
        self.touch()
        return inst.result_id

    def set_global(self, index: int, inst: Instruction) -> None:
        """Replace the global declaration in slot *index* with *inst*.

        Globals are shared between clones, so an edit to a declaration is
        made on a copy that takes over the slot here; the declaration that
        was there is left untouched for every other module holding it.
        """
        self.global_insts[index] = inst
        self._globals_version += 1
        self.touch()

    def global_variables(self) -> list[Instruction]:
        return [i for i in self.global_insts if i.opcode is Op.Variable]

    def name_of(self, result_id: int) -> str | None:
        return self.names.get(result_id)

    def id_named(self, name: str) -> int | None:
        for rid, n in self.names.items():
            if n == name:
                return rid
        return None

    # -- copying and comparison --------------------------------------------------

    def clone(self) -> "Module":
        new = object.__new__(Module)
        new.id_bound = self.id_bound
        # Global declarations are immutable, so the clone shares them.
        new.global_insts = list(self.global_insts)
        new.functions = [f.clone() for f in self.functions]
        new.entry_point_id = self.entry_point_id
        new.entry_point_name = self.entry_point_name
        new.names = dict(self.names)
        # The clone is content-identical, so valid fingerprint/digest/type
        # table caches carry over (rebased to the clone's fresh version
        # counters).  Cached values are never mutated, so sharing is safe.
        new._version = 0
        new._globals_version = 0
        new._fingerprint_cache = _carried(self._fingerprint_cache, self._version)
        new._digest_cache = _carried(self._digest_cache, self._version)
        new._type_table_cache = _carried(
            self._type_table_cache, self._globals_version
        )
        new._typed_globals_cache = _carried(
            self._typed_globals_cache, self._globals_version
        )
        return new

    def touch(self) -> None:
        """Mark the module as mutated, invalidating cached fingerprints."""
        self._version += 1

    def fingerprint(self) -> tuple:
        """Structural identity of the module (ignores ``id_bound`` slack).

        Cached per :attr:`_version`: repeated calls on an unmutated module
        return the same tuple object without rebuilding it.
        """
        cached = self._fingerprint_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        fingerprint = (
            tuple(inst.key() for inst in self.global_insts),
            tuple(
                (
                    f.inst.key(),
                    tuple(p.key() for p in f.params),
                    tuple(
                        (
                            b.label_id,
                            tuple(i.key() for i in b.instructions),
                            b.terminator.key() if b.terminator else None,
                        )
                        for b in f.blocks
                    ),
                )
                for f in self.functions
            ),
            self.entry_point_id,
            tuple(sorted(self.names.items())),
        )
        self._fingerprint_cache = (self._version, fingerprint)
        return fingerprint

    def content_digest(self) -> str:
        """A compact, stable content hash of :meth:`fingerprint`.

        The digest keys the compile/probe caches (:mod:`repro.perf.
        probe_cache`): equal digests mean structurally identical modules.
        Cached per :attr:`_version` alongside the fingerprint.
        """
        cached = self._digest_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        import pickle
        from hashlib import blake2b

        # Pickle rather than repr: ~4x faster to serialize, and still sound
        # as a cache key — equal bytes decode to equal fingerprints, so a
        # digest collision implies structural equality.  (Pickle memoization
        # can make *equal* fingerprints serialize differently when their
        # object sharing differs; that only costs a cache miss, never a
        # wrong hit.)
        digest = blake2b(
            pickle.dumps(self.fingerprint(), protocol=5), digest_size=16
        ).hexdigest()
        self._digest_cache = (self._version, digest)
        return digest

    def map_instructions(self, fn: Callable[[Instruction], None]) -> None:
        """Apply *fn* to every instruction in the module, for bulk edits.

        Function-body instructions are edited in place; a global is edited
        on a copy that replaces it through :meth:`set_global` when *fn*
        changed it.
        """
        for index, inst in enumerate(self.global_insts):
            copy = inst.clone()
            fn(copy)
            if copy.key() != inst.key():
                self.set_global(index, copy)
        for function in self.functions:
            for inst in function.all_instructions():
                fn(inst)
        self.touch()


def _carried(cached: "tuple[int, Any] | None", version: int) -> "tuple[int, Any] | None":
    """*cached* rebased to version 0 if it is valid at *version*, else None."""
    if cached is not None and cached[0] == version:
        return (0, cached[1])
    return None
