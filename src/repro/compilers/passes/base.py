"""Optimization pass framework and shared pass utilities."""

from __future__ import annotations

import abc

from repro.compilers.base import BugContext
from repro.ir.analysis.cfg import Cfg
from repro.ir.module import Function, Instruction, Module
from repro.ir.opcodes import PURE_OPS, TRAPPING_OPS, Op
from repro.ir.rewrite import remove_phi_predecessor


class Pass(abc.ABC):
    """One optimization pass.  Passes mutate modules in place; the pipeline
    owns cloning.

    ``run`` returns True when anything changed.  The flag is load-bearing
    for cache soundness: on False the probe cache keeps the module's cached
    content digest instead of recomputing it, so a pass that edits the
    module's content (a function body, a global, a name) must return True.
    Allocating ids without using them does not count as a change (the
    digest ignores ``id_bound``).

    A pass run sweeps the module once, not once per edit: it builds at most
    one :class:`~repro.ir.rewrite.UseIndex` (or one use count) and rewrites
    through it.  Injected bugs key on what a pass sees, so a rewrite of a
    pass must keep the module state that every ``bugs.active``, ``fire``
    and ``crash`` call sees, in the same order.
    ``tests/compilers/test_pass_equivalence.py`` guards this against the
    pre-rewrite pass bodies.

    A pass asks about a bug (``bugs.active`` or ``bugs.crash``) only once
    the bug's trigger holds, after the cheap test that decides whether the
    buggy path could change anything, and only about its own bugs
    (:func:`~repro.compilers.bugs.bugs_for_pass`).  The probe cache shares
    a pass run with every target that agrees on the bugs the run asked
    about (:attr:`~repro.compilers.base.BugContext.consulted`), so a query
    made up front costs cache reuse; a query about another pass's bug
    would make that sharing unsound.
    ``tests/compilers/test_bug_consults.py`` checks the second rule."""

    name: str = "pass"

    @abc.abstractmethod
    def run(self, module: Module, bugs: BugContext) -> bool:
        raise NotImplementedError


def is_pure(inst: Instruction) -> bool:
    """True for instructions with no side effects (removable when unused)."""
    return (
        inst.opcode in PURE_OPS
        or inst.opcode in TRAPPING_OPS
        or inst.opcode in (Op.Load, Op.AccessChain, Op.Phi, Op.Undef)
    )


def remove_unreachable_blocks(function: Function, bugs: BugContext | None = None) -> bool:
    """Delete blocks unreachable from the entry, maintaining phis.

    Hosts the ``dce-kill-unreachable`` crash bug: some real drivers choke on
    dead code containing fragment-kill instructions.
    """
    cfg = Cfg.build(function)
    dead = [b for b in function.blocks if b.label_id not in cfg.reachable]
    if not dead:
        return False
    if bugs is not None:
        for block in dead:
            if block.terminator is not None and block.terminator.opcode is Op.Kill:
                bugs.crash(
                    "dce-kill-unreachable",
                    "dead_branch_elim.cpp:88: Assertion `opcode != OpKill' "
                    f"failed while removing block %{block.label_id}",
                )
    dead_labels = {b.label_id for b in dead}
    function.blocks = [b for b in function.blocks if b.label_id not in dead_labels]
    for block in function.blocks:
        incoming = {p for _, p in (pair for phi in block.phis() for pair in phi.phi_pairs())}
        for dead_label in dead_labels & incoming:
            remove_phi_predecessor(block, dead_label)
    return True


def module_constants(module: Module) -> dict[int, object]:
    """Map constant ids to their Python values (booleans, ints, floats)."""
    values: dict[int, object] = {}
    for inst in module.global_insts:
        if inst.opcode is Op.ConstantTrue:
            values[inst.result_id] = True
        elif inst.opcode is Op.ConstantFalse:
            values[inst.result_id] = False
        elif inst.opcode is Op.Constant:
            values[inst.result_id] = inst.operands[0]
    return values
