"""Control-flow-graph analyses: reachability, dominators, availability.

SPIR-V's structural rules that the paper's transformations interact with are
expressed in terms of dominance: a block must appear before the blocks it
dominates, and an instruction may only use a result id that is *available* —
defined earlier in the same block or in a strictly dominating block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.module import Function, Instruction, Module, TypedId, typed_id


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


class Availability:
    """Answers "is id X available at instruction Y?" for one function.

    Global declarations and function parameters are available everywhere;
    a local definition is available at uses it strictly precedes in its own
    block, and everywhere in blocks its block strictly dominates.

    Every query answers from indexes built lazily over the function as it
    stands at the first query that needs them, so the owner must drop the
    object after mutating the module (``Context.invalidate`` does).
    """

    def __init__(self, module: Module, function: Function) -> None:
        self.module = module
        self.function = function
        self.cfg = Cfg.build(function)
        #: Ids available everywhere: globals, functions and params.
        self._everywhere: set[int] | None = None
        #: ``(block label, index in the block)`` per local definition
        #: (index -1 for a label) and per body instruction, the latter keyed
        #: by ``id(inst)`` in a map of its own.
        self._def_sites: dict[int, tuple[int, int]] | None = None
        self._inst_sites: dict[int, tuple[int, int]] = {}
        #: Per block label, in layout order: its typed definitions, and the
        #: number of them preceding each of its instructions (keyed by
        #: ``id(inst)``).  Built on the first positional query.
        self._block_defs: dict[int, tuple[list[TypedId], dict[int, int]]] | None = None
        #: Per queried block label: ``(head, tail)`` — globals, params and the
        #: definitions of strict dominators laid out before the block, then
        #: those of strict dominators laid out after it.
        self._dominating: dict[int, tuple[list[TypedId], list[TypedId]]] = {}
        #: Per ``(block label, own definitions in scope)``: the available
        #: list and, once asked for, its ids bucketed by type.
        self._available: dict[tuple[int, int], list] = {}

    def available_at(self, def_id: int, block_label: int, use_inst: Instruction | None) -> bool:
        """Is *def_id* usable by *use_inst* residing in block *block_label*?

        Pass ``use_inst=None`` to ask about the end of the block (terminator
        position); an instruction that is not in the block's body (its
        terminator) sees every definition of the block.
        """
        everywhere = self._everywhere
        if everywhere is None:
            everywhere = self._everywhere = {
                inst.result_id
                for inst in self.module.global_insts
                if inst.result_id is not None
            }
            everywhere.update(f.result_id for f in self.module.functions)
            everywhere.update(p.result_id for p in self.function.params)
        if def_id in everywhere:
            return True
        if self._def_sites is None:
            self._index_sites()
        site = self._def_sites.get(def_id)  # type: ignore[union-attr]
        if site is None:
            return False
        def_block, def_index = site
        if def_block == block_label:
            if use_inst is None:
                return True
            use_site = self._inst_sites.get(id(use_inst))
            if use_site is None or use_site[0] != block_label:
                return True
            return def_index < use_site[1]
        return self.cfg.strictly_dominates(def_block, block_label)

    def _index_sites(self) -> None:
        def_sites: dict[int, tuple[int, int]] = {}
        inst_sites = self._inst_sites
        for block in self.function.blocks:
            label = block.label_id
            def_sites[label] = (label, -1)
            for index, inst in enumerate(block.instructions):
                site = (label, index)
                inst_sites[id(inst)] = site
                if inst.result_id is not None:
                    def_sites[inst.result_id] = site
        self._def_sites = def_sites

    def ids_available_at(self, block_label: int, use_inst: Instruction | None) -> list[int]:
        """All value ids available at the given position (excluding labels)."""
        return [value_id for value_id, _ in self.typed_available_at(block_label, use_inst)]

    def typed_available_at(
        self, block_label: int, use_inst: Instruction | None
    ) -> list[TypedId]:
        """``(id, value type or None)`` of every id available at the given
        position: globals in declaration order, then params, then the
        definitions of the block's strict dominators and of its own prefix,
        in layout order.  Memoized for the object's lifetime, so callers
        must treat the list as read-only."""
        return self._entry(block_label, use_inst)[0]

    def ids_of_type_at(
        self, block_label: int, use_inst: Instruction | None, ty: object
    ) -> list[int]:
        """The ids of :meth:`typed_available_at` whose type equals *ty*, in
        the same order (read-only, like it)."""
        entry = self._entry(block_label, use_inst)
        if entry[1] is None:
            buckets: dict[object, list[int]] = {}
            for value_id, value_ty in entry[0]:
                if value_ty is not None:
                    buckets.setdefault(value_ty, []).append(value_id)
            entry[1] = buckets
        return entry[1].get(ty, [])

    def _entry(self, block_label: int, use_inst: Instruction | None) -> list:
        own = self._index().get(block_label)
        if own is None:
            defs: list[TypedId] = []
            count = 0
        else:
            defs, preceding = own
            count = len(defs)
            if use_inst is not None:
                count = preceding.get(id(use_inst), count)
        key = (block_label, count)
        entry = self._available.get(key)
        if entry is None:
            head, tail = self._dominating_defs(block_label)
            entry = self._available[key] = [head + defs[:count] + tail, None]
        return entry

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
