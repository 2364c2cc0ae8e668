"""Fact management (§3.2 of the paper).

Transformations establish facts that later transformations' preconditions
take on trust:

* ``DeadBlock(b)`` — block *b* is dynamically unreachable.
* ``Synonymous(a, b)`` — two data descriptors are equal wherever both are
  available.  A :class:`DataDescriptor` is an id plus an optional literal
  index path into a composite, so ``Synonymous((v, (0,)), (x, ()))`` says
  component 0 of *v* equals *x*.  Synonymy is maintained as a union-find over
  descriptors.
* ``Irrelevant(i)`` — the value of id *i* never affects the final output.
* ``IrrelevantUse(inst, k)`` — operand *k* of instruction *inst* can be
  replaced by any type-correct id without affecting output (our per-use
  refinement of the paper's irrelevant-id fact, used for call arguments).
* ``IrrelevantPointee(p)`` — data pointed to by *p* never affects output.
* ``LiveSafe(f)`` — calling *f* from anywhere preserves output, provided
  pointer arguments are ``IrrelevantPointee``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DataDescriptor:
    """An id, optionally refined by a literal index path into a composite."""

    object_id: int
    indices: tuple[int, ...] = ()

    @property
    def is_plain(self) -> bool:
        return not self.indices

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_plain:
            return f"%{self.object_id}"
        return f"%{self.object_id}[{','.join(map(str, self.indices))}]"


def plain(object_id: int) -> DataDescriptor:
    return DataDescriptor(object_id)


@dataclass
class FactManager:
    """Holds the fact set *F* of a transformation context."""

    dead_blocks: set[int] = field(default_factory=set)
    irrelevant_ids: set[int] = field(default_factory=set)
    irrelevant_uses: set[tuple[int, int]] = field(default_factory=set)
    irrelevant_pointees: set[int] = field(default_factory=set)
    livesafe_functions: set[int] = field(default_factory=set)
    _synonym_parent: dict[DataDescriptor, DataDescriptor] = field(default_factory=dict)
    #: Per union-find root: the sorted plain ids of its class.
    _plain_members: dict[DataDescriptor, tuple[int, ...]] = field(default_factory=dict)
    #: The ids whose plain descriptor the relation knows, so that a query
    #: about any other id needs no descriptor.
    _plain_ids: set[int] = field(default_factory=set)

    # -- dead blocks -----------------------------------------------------------

    def add_dead_block(self, label: int) -> None:
        self.dead_blocks.add(label)

    def is_dead_block(self, label: int) -> bool:
        return label in self.dead_blocks

    # -- irrelevance -----------------------------------------------------------

    def add_irrelevant(self, value_id: int) -> None:
        self.irrelevant_ids.add(value_id)

    def is_irrelevant(self, value_id: int) -> bool:
        return value_id in self.irrelevant_ids

    def add_irrelevant_use(self, instruction_id: int, operand_index: int) -> None:
        self.irrelevant_uses.add((instruction_id, operand_index))

    def is_irrelevant_use(self, instruction_id: int, operand_index: int) -> bool:
        return (instruction_id, operand_index) in self.irrelevant_uses

    def add_irrelevant_pointee(self, pointer_id: int) -> None:
        self.irrelevant_pointees.add(pointer_id)

    def is_irrelevant_pointee(self, pointer_id: int) -> bool:
        return pointer_id in self.irrelevant_pointees

    # -- live-safety -----------------------------------------------------------

    def add_livesafe(self, function_id: int) -> None:
        self.livesafe_functions.add(function_id)

    def is_livesafe(self, function_id: int) -> bool:
        return function_id in self.livesafe_functions

    # -- synonyms (union-find) ---------------------------------------------------

    def _find(self, descriptor: DataDescriptor) -> DataDescriptor:
        parent = self._synonym_parent.get(descriptor)
        if parent is None or parent == descriptor:
            return descriptor
        root = self._find(parent)
        self._synonym_parent[descriptor] = root
        return root

    def _plain_members_of(self, root: DataDescriptor) -> tuple[int, ...]:
        """The sorted plain ids in *root*'s class; a descriptor the relation
        has not seen yet is a class of its own."""
        members = self._plain_members.get(root)
        if members is not None:
            return members
        return (root.object_id,) if root.is_plain else ()

    def add_synonym(self, a: DataDescriptor, b: DataDescriptor) -> None:
        """Record ``Synonymous(a, b)``."""
        root_a, root_b = self._find(a), self._find(b)
        if root_a != root_b:
            self._synonym_parent[root_b] = root_a
            self._plain_members[root_a] = tuple(
                sorted(self._plain_members_of(root_a) + self._plain_members_of(root_b))
            )
            self._plain_members.pop(root_b, None)
        else:
            self._plain_members.setdefault(root_a, self._plain_members_of(root_a))
        # Make sure both descriptors are registered for enumeration.
        self._synonym_parent.setdefault(a, root_a)
        self._synonym_parent.setdefault(b, root_a)
        for d in (a, b):
            if d.is_plain:
                self._plain_ids.add(d.object_id)

    def are_synonymous(self, a: DataDescriptor, b: DataDescriptor) -> bool:
        if a == b:
            return True
        if a not in self._synonym_parent or b not in self._synonym_parent:
            return False
        return self._find(a) == self._find(b)

    def plain_synonyms_of(self, value_id: int) -> list[int]:
        """All *other* plain ids recorded synonymous with *value_id*, sorted."""
        if value_id not in self._plain_ids:
            return []
        members = self._plain_members[self._find(plain(value_id))]
        return [m for m in members if m != value_id]

    def known_descriptors(self) -> list[DataDescriptor]:
        return list(self._synonym_parent)

    # -- maintenance ------------------------------------------------------------

    def clone(self) -> "FactManager":
        """An independent copy of the fact set (descriptors are immutable, so
        shallow container copies suffice)."""
        return FactManager(
            dead_blocks=set(self.dead_blocks),
            irrelevant_ids=set(self.irrelevant_ids),
            irrelevant_uses=set(self.irrelevant_uses),
            irrelevant_pointees=set(self.irrelevant_pointees),
            livesafe_functions=set(self.livesafe_functions),
            _synonym_parent=dict(self._synonym_parent),
            _plain_members=dict(self._plain_members),
            _plain_ids=set(self._plain_ids),
        )

    def forget_ids(self, ids: set[int]) -> None:
        """Drop facts mentioning removed ids (defensive; rarely needed because
        transformations only ever add program elements)."""
        self.dead_blocks -= ids
        self.irrelevant_ids -= ids
        self.irrelevant_pointees -= ids
        self.livesafe_functions -= ids
        self.irrelevant_uses = {
            (inst, k) for inst, k in self.irrelevant_uses if inst not in ids
        }
        if not any(d.object_id in ids for d in self._synonym_parent):
            return
        classes: dict[DataDescriptor, list[DataDescriptor]] = {}
        for d in self._synonym_parent:
            if d.object_id not in ids:
                classes.setdefault(self._find(d), []).append(d)
        self._synonym_parent = {}
        self._plain_members = {}
        self._plain_ids = set()
        # A survivor left without a class-mate has no fact left to state.
        for first, *rest in classes.values():
            for d in rest:
                self.add_synonym(first, d)
