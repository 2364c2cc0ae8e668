"""``Module.content_digest`` keys the probe caches, so it must be sound
(equal digests mean equal :meth:`~repro.ir.module.Module.fingerprint`),
keep its hits (equal content gets an equal digest however the module was
made), tell
apart the near misses a flat encoding could merge, and survive pickling.
``fingerprint()`` itself is pinned: reduction journals persist
``sha1(repr(fingerprint()))``."""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.compilers.base import BugContext
from repro.compilers.pipeline import standard_pipeline, tool_pipeline
from repro.core.context import Context
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.transformation import apply_sequence
from repro.corpus.generator import reference_programs
from repro.ir.binary import decode, encode
from repro.ir.module import Block, Instruction
from repro.ir.opcodes import Op
from repro.ir.parser import assemble
from repro.ir.printer import disassemble
from tests.ir.test_fingerprint_cache import _tiny

FUZZED_VARIANTS = 40

#: sha1 over ``repr(fingerprint())`` of every corpus program then every
#: fuzzed variant (``_fuzzed``), one per line.
FINGERPRINT_PIN = "81dac455c22c7ffb8ea60366623713f497762a88"


def _fresh_digest(module) -> str:
    """``content_digest()`` recomputed with no cached part."""
    fresh = module.clone()
    fresh._digest_cache = None
    fresh._globals_encoding_cache = None
    return fresh.content_digest()


def _fuzzed(references, donors):
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=40))
    variants = []
    for seed in range(FUZZED_VARIANTS):
        program = references[seed % len(references)]
        variants.append(fuzzer.run(program.module, program.inputs, seed).variant)
    return variants


def _stage_outputs(module):
    """A copy of every stage output of both pass pipelines over *module*."""
    outputs = []
    for passes in (standard_pipeline(), tool_pipeline()):
        work = module.clone()
        bugs = BugContext(frozenset())
        for opt_pass in passes:
            bugs.current_pass = opt_pass.name
            opt_pass.run(work, bugs)
            work.touch()
            outputs.append(work.clone())
    return outputs


@pytest.fixture(scope="module")
def fuzzed(references, donors):
    return _fuzzed(references, donors)


@pytest.fixture(scope="module")
def every_module(references, fuzzed):
    modules = [p.module for p in references] + list(fuzzed)
    for module in list(modules):
        modules.extend(_stage_outputs(module))
    return modules


class TestSoundness:
    def test_equal_digests_mean_equal_fingerprints(self, every_module):
        by_digest: dict[str, list] = {}
        for module in every_module:
            digest = module.content_digest()
            assert digest == _fresh_digest(module)
            by_digest.setdefault(digest, []).append(module)
        for group in by_digest.values():
            first = group[0].fingerprint()
            assert all(module.fingerprint() == first for module in group[1:])
        # The classes are exactly those of repr(fingerprint()), which
        # tells 1 from True and 0.0 from -0.0 as the digest does.
        assert len(by_digest) == len(
            {repr(module.fingerprint()) for module in every_module}
        )
        assert any(len(group) > 1 for group in by_digest.values())

    def test_cached_digest_tracks_every_fuzzed_step(self, references, donors):
        fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=40))
        for program in references[:3]:
            fuzzed = fuzzer.run(program.module, program.inputs, 0)
            ctx = Context.start(program.module, program.inputs)
            for transformation in fuzzed.transformations:
                ctx.module.content_digest()  # warm both cached parts
                apply_sequence(ctx, [transformation], validate_each=True)
                assert ctx.module.content_digest() == _fresh_digest(ctx.module)


class TestHitsAreKept:
    def test_clone_has_the_same_digest(self, every_module):
        for module in every_module:
            assert module.clone().content_digest() == module.content_digest()

    def test_reparsed_copies_have_the_same_digest(self, references, fuzzed):
        for module in [p.module for p in references] + list(fuzzed):
            digest = module.content_digest()
            assert assemble(disassemble(module)).content_digest() == digest
            assert decode(encode(module)).content_digest() == digest

    def test_independently_built_modules_have_the_same_digest(self, references):
        assert _tiny().content_digest() == _tiny().content_digest()
        for built, again in zip(references, reference_programs()):
            assert built.module is not again.module
            assert built.module.content_digest() == again.module.content_digest()

    def test_names_digest_in_sorted_order(self):
        module, shuffled = _tiny(), _tiny()
        shuffled.names = dict(reversed(list(shuffled.names.items())))
        assert list(shuffled.names) != list(module.names)
        assert shuffled.content_digest() == module.content_digest()


def _constant_slot(module) -> int:
    return next(
        i for i, inst in enumerate(module.global_insts)
        if inst.opcode is Op.Constant
    )


def _with_constant(value):
    module = _tiny()
    slot = _constant_slot(module)
    old = module.global_insts[slot]
    module.set_global(
        slot, Instruction(Op.Constant, old.result_id, old.type_id, [value])
    )
    return module


class TestNearMissesDiffer:
    def test_int_and_bool_operands_differ(self):
        one, true = _with_constant(1), _with_constant(True)
        assert one.fingerprint() == true.fingerprint()
        assert one.content_digest() != true.content_digest()

    def test_signed_zeros_differ(self):
        zero, negative = _with_constant(0.0), _with_constant(-0.0)
        assert zero.fingerprint() == negative.fingerprint()
        assert zero.content_digest() != negative.content_digest()

    def test_operands_shifted_between_body_instructions_differ(self):
        def body(split):
            module = _tiny()
            block = module.functions[0].blocks[0]
            operands = [7, 8, 9]
            block.instructions[:0] = [
                Instruction(Op.CompositeConstruct, 90, 1, operands[:split]),
                Instruction(Op.CompositeConstruct, 91, 1, operands[split:]),
            ]
            module.touch()
            return module.content_digest()

        assert len({body(split) for split in range(4)}) == 4

    def test_operands_shifted_between_globals_differ(self):
        def globals_(split):
            module = _tiny()
            operands = [7, 8, 9]
            for rid, part in ((90, operands[:split]), (91, operands[split:])):
                module.add_global(Instruction(Op.ConstantComposite, rid, 1, part))
            return module.content_digest()

        assert len({globals_(split) for split in range(4)}) == 4

    def test_operand_shifted_from_globals_into_functions_differs(self):
        module, shifted = _tiny(), _tiny()
        slot = len(shifted.global_insts) - 1
        last = shifted.global_insts[slot]
        moved = last.operands[-1]
        shifted.set_global(
            slot,
            Instruction(last.opcode, last.result_id, last.type_id, last.operands[:-1]),
        )
        shifted.functions[0].inst.operands.insert(0, moved)
        shifted.touch()
        assert shifted.content_digest() != module.content_digest()

    def test_instruction_shifted_between_blocks_differs(self):
        def split_at(where):
            module = _tiny()
            function = module.functions[0]
            block = function.blocks[0]
            second = Block(95)
            second.instructions = block.instructions[where:]
            block.instructions = block.instructions[:where]
            second.terminator, block.terminator = block.terminator, None
            function.blocks.append(second)
            module.touch()
            return module.content_digest()

        count = len(_tiny().functions[0].blocks[0].instructions)
        assert len({split_at(where) for where in range(count + 1)}) == count + 1

    def test_global_and_body_placement_differ(self):
        def placed(in_body):
            module = _tiny()
            undef = Instruction(Op.Undef, 90, 1)
            if in_body:
                module.functions[0].blocks[0].instructions.insert(0, undef)
                module.touch()
            else:
                module.add_global(undef)
            return module

        globally, in_body = placed(False), placed(True)
        assert globally.content_digest() != in_body.content_digest()

    def test_missing_terminator_differs_from_a_terminator_in_the_body(self):
        module, untermed = _tiny(), _tiny()
        block = untermed.functions[0].blocks[0]
        block.instructions.append(block.terminator)
        block.terminator = None
        untermed.touch()
        assert untermed.content_digest() != module.content_digest()

    def test_names_are_covered(self):
        module, renamed, moved = _tiny(), _tiny(), _tiny()
        rid = next(iter(renamed.names))
        renamed.names[rid] = renamed.names[rid] + "2"
        renamed.touch()
        moved.names[moved.id_bound + 1] = moved.names.pop(rid)
        moved.touch()
        digests = {m.content_digest() for m in (module, renamed, moved)}
        assert len(digests) == 3

    def test_id_bound_and_entry_point_name_are_ignored(self):
        module, slack = _tiny(), _tiny()
        slack.id_bound += 5
        slack.entry_point_name = "other"
        slack.touch()
        assert slack.content_digest() == module.content_digest()
        assert slack.fingerprint() == module.fingerprint()


class TestPickling:
    def test_round_trip_keeps_a_valid_digest(self, fuzzed):
        for module in fuzzed[:8]:
            digest = module.content_digest()
            copy = pickle.loads(pickle.dumps(module))
            assert copy.content_digest() == digest == _fresh_digest(copy)

    def test_round_trip_then_edit_recomputes(self):
        module = _tiny()
        module.content_digest()
        copy = pickle.loads(pickle.dumps(module))
        copy.add_global(Instruction(Op.Constant, copy.fresh_id(), 1, [99]))
        copy.functions[0].blocks[0].instructions[0].opcode = Op.IMul
        copy.touch()
        assert copy.content_digest() != module.content_digest()
        assert copy.content_digest() == _fresh_digest(copy)


def test_fingerprint_repr_is_pinned(references, fuzzed):
    lines = [repr(p.module.fingerprint()) for p in references]
    lines += [repr(module.fingerprint()) for module in fuzzed]
    pinned = hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()
    assert pinned == FINGERPRINT_PIN
