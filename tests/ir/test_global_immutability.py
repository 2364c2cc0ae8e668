"""Global declarations are immutable values shared by clones: nothing on the
fuzz, compile or reduce paths edits one in place, and every edit to the
global section goes through a slot replacement on the edited module only."""

from __future__ import annotations

from repro.compilers import make_target, make_targets
from repro.compilers.base import CompilerCrash
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.harness import Harness
from repro.ir import IntType, VoidType
from repro.ir.module import Instruction, Module
from repro.ir.opcodes import Op
from repro.ir.rewrite import replace_value_uses
from repro.perf import ProbeCache
from repro.perf import probe_cache as probe_cache_module

from tests.ir.test_fingerprint_cache import _tiny, _uncached_type_table


def _recording_globals(monkeypatch) -> dict[int, tuple[Instruction, tuple]]:
    """Record ``(inst, inst.key())`` for every global a module holds when it
    is cloned or after one is added or replaced.  The record keeps each
    instruction alive, so ``id`` stays unique."""
    seen: dict[int, tuple[Instruction, tuple]] = {}

    def record(module: Module) -> None:
        for inst in module.global_insts:
            seen.setdefault(id(inst), (inst, inst.key()))

    original_clone = Module.clone
    original_add = Module.add_global
    original_set = Module.set_global

    def clone(self):
        record(self)
        return original_clone(self)

    def add_global(self, inst):
        result = original_add(self, inst)
        record(self)
        return result

    def set_global(self, index, inst):
        original_set(self, index, inst)
        record(self)

    monkeypatch.setattr(Module, "clone", clone)
    monkeypatch.setattr(Module, "add_global", add_global)
    monkeypatch.setattr(Module, "set_global", set_global)
    return seen


def _edited(seen) -> list[tuple]:
    return [key for inst, key in seen.values() if inst.key() != key]


def test_fuzz_compile_and_reduce_never_edit_a_global(
    monkeypatch, references, donors
):
    seen = _recording_globals(monkeypatch)
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=60))
    targets = make_targets()
    for program in references[:6]:
        for seed in (0, 1):
            variant = fuzzer.run(program.module, program.inputs, seed).variant
            for target in targets:
                try:
                    target.compile(variant)
                except CompilerCrash:
                    pass
    assert not _edited(seen)

    # A small module store, so evictions force prefix rebuilds too.
    monkeypatch.setattr(probe_cache_module, "MAX_MODULES", 8)
    harness = Harness(
        [make_target("SwiftShader"), make_target("spirv-opt")],
        references,
        donors,
        FuzzerOptions(max_transformations=40),
        probe_cache=ProbeCache(),
    )
    findings = harness.run_campaign(range(8)).findings
    assert findings
    for finding in findings[:3]:
        harness.reduce_finding(finding)
    assert not _edited(seen)
    assert len(seen) > 100


def _function_type_slot(module: Module) -> int:
    return next(
        i for i, inst in enumerate(module.global_insts)
        if inst.opcode is Op.TypeFunction
    )


def test_replace_value_uses_rewrites_only_the_clone():
    module = _tiny()
    digest = module.content_digest()
    table = module.type_table()
    clone = module.clone()
    slot = _function_type_slot(module)
    shared = module.global_insts[slot]
    assert clone.global_insts[slot] is shared
    key = shared.key()

    int_type = module.find_type_id(IntType())
    void_type = module.find_type_id(VoidType())
    assert replace_value_uses(clone, void_type, int_type) == 1

    assert shared.key() == key
    assert module.global_insts[slot] is shared
    assert module.content_digest() == digest
    assert module.type_table() is table
    assert clone.global_insts[slot] is not shared
    assert clone.global_insts[slot].operands == [int_type]
    assert clone.content_digest() != digest
    assert clone.type_table() == _uncached_type_table(clone)


def test_replace_value_uses_skips_literal_matches():
    # ``OpTypeInt 32 1`` holds the literal 32, not an id: replacing the id
    # 32 must leave that declaration (and the global section) alone.
    module = _tiny()
    width = next(i for i in module.global_insts if i.opcode is Op.TypeInt)
    assert 32 in width.operands and not module.has_id(32)
    table = module.type_table()
    before = list(module.global_insts)
    assert replace_value_uses(module, 32, module.fresh_id()) == 0
    assert all(a is b for a, b in zip(module.global_insts, before))
    assert module.type_table() is table


def test_map_instructions_edits_a_global_on_a_copy():
    module = _tiny()
    clone = module.clone()
    constant = next(i for i in clone.global_insts if i.opcode is Op.Constant)
    key = constant.key()

    def bump(inst):
        if inst.opcode is Op.Constant:
            inst.operands[0] = int(inst.operands[0]) + 1

    clone.map_instructions(bump)
    assert constant.key() == key  # the shared declaration is untouched
    assert module.content_digest() != clone.content_digest()
    edited = next(i for i in clone.global_insts if i.opcode is Op.Constant)
    assert edited.operands[0] == key[3][0] + 1
