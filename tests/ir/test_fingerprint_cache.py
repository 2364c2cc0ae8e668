"""Fingerprint/digest/type-table caching must be invisible: cached values
are identical to fresh ones, and every mutation path invalidates them."""

from __future__ import annotations

from repro.core.context import Context
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.transformation import apply_sequence
from repro.ir import IntType, ModuleBuilder, VoidType
from repro.ir.module import Instruction
from repro.ir.opcodes import Op
from repro.ir.rewrite import replace_value_uses


def _tiny():
    b = ModuleBuilder()
    out = b.output("out", IntType())
    f = b.function("main", VoidType())
    blk = f.block()
    c = b.int_const(4)
    v = blk.iadd(c, c)
    blk.store(out, v)
    blk.ret()
    b.entry_point(f.result_id)
    return b.build()


class TestFingerprintCache:
    def test_cached_digest_matches_fresh_module(self):
        module = _tiny()
        module.fingerprint()  # warm the cache
        assert module.content_digest() == _tiny().content_digest()

    def test_add_global_invalidates(self):
        module = _tiny()
        before = module.content_digest()
        module.add_global(
            Instruction(Op.Constant, module.fresh_id(), 1, [99]),
        )
        assert module.content_digest() != before

    def test_map_instructions_invalidates(self):
        module = _tiny()
        before = module.content_digest()

        def to_mul(inst):
            if inst.opcode is Op.IAdd:
                inst.opcode = Op.IMul

        module.map_instructions(to_mul)
        after = module.content_digest()
        assert after != before
        # And the new cached value matches a from-scratch recomputation.
        module._digest_cache = None
        module._globals_encoding_cache = None
        assert module.content_digest() == after

    def test_direct_mutation_plus_touch_invalidates(self):
        module = _tiny()
        before = module.content_digest()
        instruction = module.functions[0].blocks[0].instructions[0]
        instruction.operands = list(instruction.operands)
        module.touch()
        module.functions[0].blocks[0].instructions[0].opcode = Op.IMul
        module.touch()
        assert module.content_digest() != before

    def test_context_invalidate_touches_module(self):
        module = _tiny()
        ctx = Context.start(module, {})
        before = ctx.module.content_digest()
        ctx.module.functions[0].blocks[0].instructions[0].opcode = Op.IMul
        ctx.invalidate()  # the transformation-effect hook
        assert ctx.module.content_digest() != before


class TestCloneCarriesCaches:
    def test_clone_digest_matches_without_recompute(self):
        module = _tiny()
        digest = module.content_digest()
        clone = module.clone()
        assert clone.content_digest() == digest

    def test_clone_diverges_after_mutation(self):
        module = _tiny()
        digest = module.content_digest()
        clone = module.clone()
        clone.functions[0].blocks[0].instructions[0].opcode = Op.IMul
        clone.touch()
        assert clone.content_digest() != digest
        assert module.content_digest() == digest  # original untouched

    def test_clone_of_stale_cache_does_not_inherit_it(self):
        module = _tiny()
        module.content_digest()
        module.functions[0].blocks[0].instructions[0].opcode = Op.IMul
        module.touch()  # cache is now stale relative to _version
        clone = module.clone()
        fresh = _tiny()
        fresh.functions[0].blocks[0].instructions[0].opcode = Op.IMul
        fresh.touch()
        assert clone.content_digest() == fresh.content_digest()


def _uncached_type_table(module):
    """``type_table()`` rebuilt from scratch, bypassing every cache."""
    fresh = module.clone()
    fresh._type_table_cache = None
    return fresh.type_table()


def _uncached_typed_globals(module):
    """``typed_globals()`` rebuilt from scratch, bypassing every cache."""
    fresh = module.clone()
    fresh._type_table_cache = None
    fresh._typed_globals_cache = None
    return fresh.typed_globals()


def _assert_views_hold(module, clone, new_id):
    """Both modules' type views equal a rebuild and hold *new_id*."""
    for copy in (module, clone):
        assert copy.type_table() == _uncached_type_table(copy)
        assert new_id in copy.type_table()
        assert copy.typed_globals() == _uncached_typed_globals(copy)
        assert (new_id, None) in copy.typed_globals()


class TestTypeTableCache:
    def test_repeated_reads_return_the_same_object(self):
        module = _tiny()
        assert module.type_table() is module.type_table()

    def test_context_types_reads_the_module_table(self):
        ctx = Context.start(_tiny(), {})
        assert ctx.types() is ctx.module.type_table()

    def test_add_global_invalidates(self):
        module = _tiny()
        before = module.type_table()
        new_id = module.fresh_id()
        module.add_global(Instruction(Op.TypeFloat, new_id, None, [32]))
        after = module.type_table()
        assert after is not before
        assert new_id in after and new_id not in before
        assert after == _uncached_type_table(module)

    def test_touch_keeps_the_table(self):
        # The table depends on the global section alone; touch() marks a
        # function-body edit, which cannot change it.
        module = _tiny()
        before = module.type_table()
        module.touch()
        assert module.type_table() is before
        assert before == _uncached_type_table(module)

    def test_context_invalidate_keeps_the_table(self):
        ctx = Context.start(_tiny(), {})
        before = ctx.types()
        ctx.invalidate()
        assert ctx.types() is before
        assert before == _uncached_type_table(ctx.module)

    def test_global_slot_rewrite_rebuilds(self):
        module = _tiny()
        int_type, void_type = (
            module.find_type_id(IntType()),
            module.find_type_id(VoidType()),
        )
        slot = next(
            i for i, inst in enumerate(module.global_insts)
            if inst.opcode is Op.TypeFunction
        )
        before = module.type_table()
        replace_value_uses(module, void_type, int_type)  # void() -> int()
        after = module.type_table()
        assert after is not before
        assert module.global_insts[slot].operands == [int_type]
        assert after != before
        assert after == _uncached_type_table(module)

    def test_clone_inherits_a_valid_table(self):
        module = _tiny()
        table = module.type_table()
        assert module.clone().type_table() is table

    def test_clone_does_not_inherit_a_stale_table(self):
        module = _tiny()
        table = module.type_table()
        typed = module.typed_globals()
        float_id = module.fresh_id()
        module.add_global(Instruction(Op.TypeFloat, float_id, None, [32]))
        clone = module.clone()
        _assert_views_hold(module, clone, float_id)
        # The views the clones shared before the edit are left as they were.
        assert float_id not in table
        assert float_id not in dict(typed)
        # A slot rewrite (void() -> int()) rebuilds both modules' views.
        int_type = module.find_type_id(IntType())
        slot = next(
            i for i, inst in enumerate(module.global_insts)
            if inst.opcode is Op.TypeFunction
        )
        fn_type = module.global_insts[slot]
        for copy in (module, clone):
            copy.set_global(
                slot, Instruction(Op.TypeFunction, fn_type.result_id, None, [int_type])
            )
            assert copy.type_table()[fn_type.result_id].return_type == IntType()
        _assert_views_hold(module, clone, float_id)

    def test_table_matches_a_rebuild_after_every_fuzzed_step(
        self, references, donors
    ):
        fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=40))
        types_added = 0
        for program in references[:3]:
            for seed in (0, 1):
                fuzzed = fuzzer.run(program.module, program.inputs, seed)
                ctx = Context.start(program.module, program.inputs)
                for transformation in fuzzed.transformations:
                    before = len(ctx.types())
                    ctx.module.typed_globals()  # extended, not rebuilt
                    apply_sequence(ctx, [transformation], validate_each=True)
                    assert ctx.module.type_table() == _uncached_type_table(
                        ctx.module
                    )
                    assert ctx.module.typed_globals() == _uncached_typed_globals(
                        ctx.module
                    )
                    assert ctx.types() is ctx.module.type_table()
                    types_added += len(ctx.types()) - before
        assert types_added > 0, "no fuzzed step declared a type"
