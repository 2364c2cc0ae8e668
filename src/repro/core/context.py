"""Transformation contexts (Definition 2.3): ``(P, I, F)`` plus analysis
caches that are invalidated after every applied transformation.

One walk per module version indexes the module: :meth:`Context.defs`, the
position of every block-body definition (:meth:`Context.position`) and the
block of every label (:meth:`Context.block_of`) come from the single
:meth:`Module.def_map` walk that whichever is asked first triggers, so
transformations locate their anchors by lookup instead of scanning the
module."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.facts import FactManager
from repro.ir import types as tys
from repro.ir.analysis.cfg import Availability, Cfg
from repro.ir.builder import ModuleBuilder
from repro.ir.module import (
    Block,
    Function,
    Instruction,
    Module,
    Position,
    evaluate_constant,
    is_constant_decl,
)


@dataclass
class Context:
    """A transformation context.

    ``module`` is mutated in place by transformation effects; ``inputs`` is
    the fixed input binding (spirv-fuzz leaves inputs unchanged, and so do
    we); ``facts`` is the fact set F.
    """

    module: Module
    inputs: dict[str, object] = field(default_factory=dict)
    facts: FactManager = field(default_factory=FactManager)
    _defs: dict[int, Instruction] | None = field(default=None, repr=False)
    _positions: dict[int, Position] | None = field(default=None, repr=False)
    _blocks: dict[int, tuple[Function, Block]] | None = field(default=None, repr=False)
    _availability: dict[int, Availability] = field(default_factory=dict, repr=False)
    _cfgs: dict[int, Cfg] = field(default_factory=dict, repr=False)

    @classmethod
    def start(cls, module: Module, inputs: dict[str, object] | None = None) -> "Context":
        """Fresh context over a *clone* of *module* with an empty fact set."""
        return cls(module.clone(), dict(inputs or {}))

    def clone(self) -> "Context":
        """An independent snapshot of ``(P, I, F)``.

        Analysis caches are *not* carried over — they would alias the old
        module — so the clone rebuilds them lazily.  Input values are scalars
        that transformations assign (never mutate in place), so a shallow
        dict copy is faithful.
        """
        return Context(self.module.clone(), dict(self.inputs), self.facts.clone())

    # -- caches -------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop analysis caches; call after any module mutation."""
        self.module.touch()
        self._defs = self._positions = self._blocks = None
        self._availability.clear()
        self._cfgs.clear()

    def _index(self) -> None:
        self._positions, self._blocks = {}, {}
        self._defs = self.module.def_map(self._positions, self._blocks)

    def defs(self) -> dict[int, Instruction]:
        if self._defs is None:
            self._index()
        return self._defs  # type: ignore[return-value]

    def position(self, result_id: int) -> Position | None:
        """``(function, block, index)`` of the block-body instruction that
        defines *result_id* (what :meth:`Module.containing_block` finds),
        or None."""
        if self._positions is None:
            self._index()
        return self._positions.get(result_id)  # type: ignore[union-attr]

    def block_of(self, label_id: int) -> tuple[Function, Block] | None:
        """``(function, block)`` of the block labelled *label_id*, or None."""
        if self._blocks is None:
            self._index()
        return self._blocks.get(label_id)  # type: ignore[union-attr]

    def types(self) -> dict[int, tys.Type]:
        """The module's type table (cached per module version; read-only)."""
        return self.module.type_table()

    def availability(self, function: Function) -> Availability:
        cached = self._availability.get(function.result_id)
        if cached is None:
            cached = Availability(self.module, function)
            self._availability[function.result_id] = cached
        return cached

    def cfg(self, function: Function) -> Cfg:
        cached = self._cfgs.get(function.result_id)
        if cached is None:
            cached = Cfg.build(function)
            self._cfgs[function.result_id] = cached
        return cached

    def builder(self) -> ModuleBuilder:
        return ModuleBuilder.wrap(self.module)

    # -- common queries ------------------------------------------------------------

    def is_fresh(self, candidate: int) -> bool:
        """The :meth:`Module.is_fresh` rule: ids at or above ``id_bound`` are
        fresh without building ``defs()``; ids below it must be undefined."""
        if candidate < 1:
            return False
        return candidate >= self.module.id_bound or candidate not in self.defs()

    def all_fresh_distinct(self, ids: list[int]) -> bool:
        return len(set(ids)) == len(ids) and all(self.is_fresh(i) for i in ids)

    def is_constant(self, result_id: int) -> bool:
        """:meth:`Module.is_constant`, answered from ``defs()``."""
        return is_constant_decl(self.defs().get(result_id))

    def constant_value(self, const_id: int) -> object:
        """:meth:`Module.constant_value`, answered from ``defs()``."""
        return evaluate_constant(self.defs(), const_id)

    def value_type(self, value_id: int) -> tys.Type | None:
        inst = self.defs().get(value_id)
        if inst is None or inst.type_id is None:
            return None
        return self.types().get(inst.type_id)

    def known_true_ids(self) -> list[int]:
        """Ids of ``OpConstantTrue`` declarations."""
        from repro.ir.opcodes import Op

        return [
            inst.result_id
            for inst in self.module.global_insts
            if inst.opcode is Op.ConstantTrue and inst.result_id is not None
        ]

    def known_false_ids(self) -> list[int]:
        from repro.ir.opcodes import Op

        return [
            inst.result_id
            for inst in self.module.global_insts
            if inst.opcode is Op.ConstantFalse and inst.result_id is not None
        ]
