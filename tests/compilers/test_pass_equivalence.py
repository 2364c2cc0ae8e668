"""The one-sweep passes against their pre-rewrite bodies
(``reference_passes.py``), pass by pass.

Injected bugs key on what a pass sees, so the rewrite must show every
``bugs.active``/``fire``/``crash`` call the same module state, in the same
order.  Over the ``test_changed_contract.py`` corpus, under every Table 2
target's bug set and both bug-free pipelines, each pass must return the same
``changed`` flag, fire the same bugs, leave the same ``id_bound``, globals
and disassembly, or raise the same :class:`CompilerCrash`.
"""

from __future__ import annotations

import pytest

from repro.compilers.base import BugContext, CompilerCrash
from repro.compilers.passes import SimplifyCfgPass
from repro.ir import ModuleBuilder, VoidType
from repro.ir.module import Instruction, IrError
from repro.ir.opcodes import Op
from repro.ir.printer import disassemble

from tests.compilers.reference_passes import reference_pass, reference_used_ids
from tests.compilers.test_changed_contract import _modules, _pipelines


def _run(opt_pass, module, bugs):
    bugs.current_pass = opt_pass.name
    try:
        changed = opt_pass.run(module, bugs)
    except CompilerCrash as crash:
        return ("crash", crash.bug_id, crash.message, crash.pass_name)
    module.touch()
    return (
        changed,
        sorted(bugs.fired),
        module.id_bound,
        [inst.key() for inst in module.global_insts],
        disassemble(module),
    )


def test_passes_match_their_references(references, donors):
    pipelines = _pipelines()
    compared = crashes = 0
    for module in _modules(references, donors):
        for name, passes, enabled in pipelines:
            fast, slow = module.clone(), module.clone()
            fast_bugs, slow_bugs = BugContext(enabled), BugContext(enabled)
            for opt_pass in passes:
                got = _run(opt_pass, fast, fast_bugs)
                expected = _run(reference_pass(opt_pass), slow, slow_bugs)
                assert got == expected, f"{name}: {opt_pass.name} diverged"
                compared += 1
                if got[0] == "crash":
                    crashes += 1
                    break
    assert compared > 0 and crashes > 0


def test_simplifycfg_merges_through_an_edge_kill_drop_removed():
    """The kill-drop bug turns ``dropper``'s conditional branch into a branch
    to ``middle``, which leaves ``kill`` with one predecessor, so the chain
    entry → dropper → middle → kill merges into one block."""
    b = ModuleBuilder()
    f = b.function("main", VoidType())
    entry, dropper, middle, kill = f.block(), f.block(), f.block(), f.block()
    entry.branch(dropper.label_id)
    dropper.branch_cond(b.bool_const(True), kill.label_id, middle.label_id)
    middle.branch(kill.label_id)
    kill.kill()
    b.entry_point(f.result_id)
    module = b.build()
    enabled = frozenset({"simplifycfg-kill-drop"})
    fast, slow = module.clone(), module.clone()
    got = _run(SimplifyCfgPass(), fast, BugContext(enabled))
    expected = _run(reference_pass(SimplifyCfgPass()), slow, BugContext(enabled))
    assert got == expected
    assert got[1] == ["simplifycfg-kill-drop"]
    assert len(fast.entry_function().blocks) == 1


def test_used_ids_match_the_reference(references, donors):
    for module in _modules(references, donors):
        for inst in module.all_instructions():
            assert inst.used_ids() == reference_used_ids(inst), inst.key()


@pytest.mark.parametrize(
    "inst",
    [
        Instruction(Op.IAdd, 9, 1, [2]),
        Instruction(Op.IAdd, 9, 1, [2, 3, 4]),
        Instruction(Op.Phi, 9, 1, [2, 3, 4]),
        Instruction(Op.Variable, 9, 1, []),
        Instruction(Op.Variable, 9, 1, ["Function", 2, 3]),
        Instruction(Op.CompositeExtract, 9, 1, []),
        Instruction(Op.Store, None, None, [2]),
    ],
    ids=lambda inst: f"{inst.opcode.value}-{len(inst.operands)}",
)
def test_used_ids_raise_like_the_reference_on_malformed_counts(inst):
    with pytest.raises(IrError) as expected:
        reference_used_ids(inst)
    with pytest.raises(IrError) as got:
        inst.used_ids()
    assert str(got.value) == str(expected.value)
