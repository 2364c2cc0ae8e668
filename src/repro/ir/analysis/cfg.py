"""Control-flow-graph analyses: reachability, dominators, availability.

SPIR-V's structural rules that the paper's transformations interact with are
expressed in terms of dominance: a block must appear before the blocks it
dominates, and an instruction may only use a result id that is *available* —
defined earlier in the same block or in a strictly dominating block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.module import Block, Function, Instruction, Module, TypedId, typed_id


@dataclass
class Cfg:
    """Control-flow graph of one function, with a dominator tree.

    Only reachable blocks participate in dominance; unreachable blocks
    dominate nothing and are dominated by nothing (matching how the validator
    treats them).
    """

    function: Function
    successors: dict[int, list[int]] = field(default_factory=dict)
    predecessors: dict[int, list[int]] = field(default_factory=dict)
    reachable: set[int] = field(default_factory=set)
    idom: dict[int, int | None] = field(default_factory=dict)
    rpo: list[int] = field(default_factory=list)
    _rpo_index: dict[int, int] = field(default_factory=dict)

    @classmethod
    def build(cls, function: Function) -> "Cfg":
        """The CFG of *function*, reusing the function's memoized analysis
        (``Function._cfg_memo``) while its block shape is unchanged."""
        shape = tuple(
            (block.label_id, tuple(block.successors())) for block in function.blocks
        )
        memo = function._cfg_memo
        if memo is not None and memo[0] == shape:
            analysis = memo[1]
        else:
            analysis = _analyze(shape)
            function._cfg_memo = (shape, analysis)
        cfg = cls(function)
        (
            cfg.successors,
            cfg.predecessors,
            cfg.reachable,
            cfg.idom,
            cfg.rpo,
            cfg._rpo_index,
        ) = analysis
        return cfg

    @property
    def entry(self) -> int:
        return self.function.entry_block().label_id

    # -- queries -----------------------------------------------------------------

    def dominates(self, a: int, b: int) -> bool:
        """True when block *a* dominates block *b* (reflexive)."""
        if a not in self.reachable or b not in self.reachable:
            return False
        current: int | None = b
        while current is not None:
            if current == a:
                return True
            current = self.idom.get(current)
        return False

    def strictly_dominates(self, a: int, b: int) -> bool:
        return a != b and self.dominates(a, b)

    def dominance_respecting_order(self) -> bool:
        """Check SPIR-V's block-order rule: every block appears after all
        blocks that strictly dominate it (entry first)."""
        position = {b.label_id: i for i, b in enumerate(self.function.blocks)}
        for block in self.function.blocks:
            label = block.label_id
            if label not in self.reachable:
                continue
            dom = self.idom.get(label)
            if dom is not None and position[dom] > position[label]:
                return False
        return True

    def dominance_frontiers(self) -> dict[int, set[int]]:
        """Dominance frontier of every reachable block (Cytron et al.)."""
        frontiers: dict[int, set[int]] = {label: set() for label in self.reachable}
        for label in self.reachable:
            preds = [p for p in self.predecessors.get(label, []) if p in self.reachable]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner: int | None = pred
                while runner is not None and runner != self.idom.get(label):
                    frontiers[runner].add(label)
                    runner = self.idom.get(runner)
        return frontiers

    def back_edges(self) -> list[tuple[int, int]]:
        """Edges (tail, head) where head dominates tail — natural loop latches."""
        edges = []
        for tail in self.reachable:
            for head in self.successors.get(tail, []):
                if head in self.reachable and self.dominates(head, tail):
                    edges.append((tail, head))
        return edges

    def dead_end_blocks(self) -> list[int]:
        """Blocks whose terminator leaves the function (return/kill/unreachable)."""
        return [
            b.label_id
            for b in self.function.blocks
            if b.terminator is not None and not b.successors()
        ]


def _analyze(shape: tuple) -> tuple:
    """Successors, predecessors, reachable set, idom, RPO and RPO index of
    a function whose blocks are *shape* (``(label, successor labels)`` in
    block order).  Shared by every :class:`Cfg` built over that shape, so
    consumers must treat the returned containers as read-only."""
    successors: dict[int, list[int]] = {}
    predecessors: dict[int, list[int]] = {}
    for label, succs in shape:
        successors[label] = list(succs)
        predecessors.setdefault(label, [])
    for label, succs in successors.items():
        for succ in succs:
            predecessors.setdefault(succ, []).append(label)
    if not shape:
        return successors, predecessors, set(), {}, [], {}
    entry = shape[0][0]
    reachable = _reachable(successors, entry)
    rpo = _reverse_postorder(successors, entry)
    rpo_index = {label: i for i, label in enumerate(rpo)}
    idom = _dominators(predecessors, reachable, entry, rpo, rpo_index)
    return successors, predecessors, reachable, idom, rpo, rpo_index


def _reachable(successors: dict[int, list[int]], entry: int) -> set[int]:
    worklist = [entry]
    seen = {entry}
    while worklist:
        label = worklist.pop()
        for succ in successors.get(label, []):
            if succ not in seen:
                seen.add(succ)
                worklist.append(succ)
    return seen


def _reverse_postorder(successors: dict[int, list[int]], entry: int) -> list[int]:
    # Iterative DFS to keep recursion depth bounded.  Successors are visited
    # in *reverse* terminator order, which makes the RPO of a structured
    # program match its natural then-before-else, header-body-exit layout —
    # the canonical order the block-layout pass normalises to.
    order: list[int] = []
    visited = {entry}
    stack: list[tuple[int, int]] = [(entry, 0)]
    while stack:
        current, child_index = stack.pop()
        succs = list(reversed(successors.get(current, [])))
        if child_index < len(succs):
            stack.append((current, child_index + 1))
            succ = succs[child_index]
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, 0))
        else:
            order.append(current)
    order.reverse()
    return order


def _dominators(
    predecessors: dict[int, list[int]],
    reachable: set[int],
    entry: int,
    rpo: list[int],
    rpo_index: dict[int, int],
) -> dict[int, int | None]:
    """Cooper–Harvey–Kennedy iterative dominator computation."""
    idom: dict[int, int | None] = {label: None for label in rpo}
    idom[entry] = entry

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]  # type: ignore[assignment]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == entry:
                continue
            preds = [
                p
                for p in predecessors.get(label, [])
                if p in reachable and idom.get(p) is not None
            ]
            if not preds:
                continue
            new_idom = preds[0]
            for pred in preds[1:]:
                new_idom = intersect(new_idom, pred)
            if idom[label] != new_idom:
                idom[label] = new_idom
                changed = True

    idom[entry] = None  # the entry has no immediate dominator
    return idom


@dataclass
class DefUse:
    """Module-wide def/use information."""

    module: Module
    uses: dict[int, list[Instruction]] = field(default_factory=dict)

    @classmethod
    def build(cls, module: Module) -> "DefUse":
        info = cls(module)
        for inst in module.all_instructions():
            for used in inst.used_ids():
                info.uses.setdefault(used, []).append(inst)
        return info

    def users_of(self, result_id: int) -> list[Instruction]:
        return list(self.uses.get(result_id, []))

    def is_used(self, result_id: int) -> bool:
        return bool(self.uses.get(result_id))


def defined_before_in_block(block: Block, def_id: int, use_inst: Instruction) -> bool:
    """True when *def_id* is defined in *block* strictly before *use_inst*.

    The block label itself counts as defined at the top.  *use_inst* may be the
    block's terminator.
    """
    if def_id == block.label_id:
        return True
    for inst in block.instructions:
        if inst is use_inst:
            return False
        if inst.result_id == def_id:
            return True
    return False


class Availability:
    """Answers "is id X available at instruction Y?" for one function.

    Global declarations and function parameters are available everywhere;
    a local definition is available at uses it strictly precedes in its own
    block, and everywhere in blocks its block strictly dominates.

    :meth:`typed_available_at` answers from an index built lazily over the
    function as it stands at the first query, so the owner must drop the
    object after mutating the module (``Context.invalidate`` does).
    """

    def __init__(self, module: Module, function: Function) -> None:
        self.module = module
        self.function = function
        self.cfg = Cfg.build(function)
        self._global_ids = {
            inst.result_id
            for inst in module.global_insts
            if inst.result_id is not None
        }
        self._global_ids.update(f.result_id for f in module.functions)
        self._param_ids = {p.result_id for p in function.params}
        self._def_block: dict[int, int] = {}
        for block in function.blocks:
            self._def_block[block.label_id] = block.label_id
            for inst in block.instructions:
                if inst.result_id is not None:
                    self._def_block[inst.result_id] = block.label_id
        #: Per block label, in layout order: its typed definitions, and the
        #: number of them preceding each of its instructions (keyed by
        #: ``id(inst)``).  Built on the first positional query.
        self._block_defs: dict[int, tuple[list[TypedId], dict[int, int]]] | None = None
        #: Per queried block label: ``(head, tail)`` — globals, params and the
        #: definitions of strict dominators laid out before the block, then
        #: those of strict dominators laid out after it.
        self._dominating: dict[int, tuple[list[TypedId], list[TypedId]]] = {}

    def available_at(self, def_id: int, block_label: int, use_inst: Instruction | None) -> bool:
        """Is *def_id* usable by *use_inst* residing in block *block_label*?

        Pass ``use_inst=None`` to ask about the end of the block (terminator
        position).
        """
        if def_id in self._global_ids or def_id in self._param_ids:
            return True
        def_block = self._def_block.get(def_id)
        if def_block is None:
            return False
        if def_block == block_label:
            if use_inst is None:
                return True
            block = self.function.block(block_label)
            return defined_before_in_block(block, def_id, use_inst)
        return self.cfg.strictly_dominates(def_block, block_label)

    def ids_available_at(self, block_label: int, use_inst: Instruction | None) -> list[int]:
        """All value ids available at the given position (excluding labels)."""
        return [value_id for value_id, _ in self.typed_available_at(block_label, use_inst)]

    def typed_available_at(
        self, block_label: int, use_inst: Instruction | None
    ) -> list[TypedId]:
        """``(id, value type or None)`` of every id available at the given
        position: globals in declaration order, then params, then the
        definitions of the block's strict dominators and of its own prefix,
        in layout order.  A fresh list the caller may keep."""
        block_defs = self._index()
        head, tail = self._dominating_defs(block_label)
        result = list(head)
        own = block_defs.get(block_label)
        if own is not None:
            defs, preceding = own
            if use_inst is None:
                result += defs
            else:
                result += defs[: preceding.get(id(use_inst), len(defs))]
        result += tail
        return result

    def _index(self) -> dict[int, tuple[list[TypedId], dict[int, int]]]:
        if self._block_defs is None:
            table = self.module.type_table()
            self._block_defs = {}
            for block in self.function.blocks:
                defs: list[TypedId] = []
                preceding: dict[int, int] = {}
                for inst in block.instructions:
                    preceding[id(inst)] = len(defs)
                    if inst.result_id is not None:
                        defs.append(typed_id(inst, table))
                self._block_defs[block.label_id] = (defs, preceding)
        return self._block_defs

    def _dominating_defs(self, block_label: int) -> tuple[list[TypedId], list[TypedId]]:
        cached = self._dominating.get(block_label)
        if cached is not None:
            return cached
        table = self.module.type_table()
        head = list(self.module.typed_globals())
        head += [typed_id(p, table) for p in self.function.params if p.result_id]
        tail: list[TypedId] = []
        dominators: set[int] = set()
        if block_label in self.cfg.reachable:
            runner = self.cfg.idom.get(block_label)
            while runner is not None:
                dominators.add(runner)
                runner = self.cfg.idom.get(runner)
        out = head
        for label, (defs, _) in self._index().items():
            if label == block_label:
                out = tail
            elif label in dominators:
                out.extend(defs)
        cached = self._dominating[block_label] = (head, tail)
        return cached
