"""``AddFunction`` parses its donor text once and shares the parse across
every replay of equal text, so neither ``precondition`` nor ``apply`` may
mutate it."""

from __future__ import annotations

from repro.core.context import Context
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.transformation import apply_sequence
from repro.core.transformations import AddFunction
from repro.core.transformations.functions import _parse_donor


def _parse_key(parsed):
    decls, function = parsed
    return (
        tuple(inst.key() for inst in decls),
        tuple(inst.key() for inst in function.all_instructions()),
    )


def _fuzzed_add_functions(references, donors):
    """(reference, prefix, AddFunction) triples from fuzzed sequences, with
    both live-safe and plain imports."""
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=60))
    found = []
    for program in references[:4]:
        for seed in range(3):
            sequence = fuzzer.run(program.module, program.inputs, seed).transformations
            for index, transformation in enumerate(sequence):
                if isinstance(transformation, AddFunction):
                    found.append((program, sequence[:index], transformation))
    assert {t.make_livesafe for _, _, t in found} == {True, False}
    return found


def test_one_record_applied_to_two_contexts_gives_identical_modules(
    references, donors
):
    for program, prefix, add in _fuzzed_add_functions(references, donors):
        shared = add._parse()
        assert shared is not None
        before = _parse_key(shared)
        modules = []
        for _ in range(2):
            ctx = Context.start(program.module, program.inputs)
            apply_sequence(ctx, prefix)
            assert apply_sequence(ctx, [add], validate_each=True) == [True]
            modules.append(ctx.module)
            assert add._parse() is shared  # memoized, not re-parsed
            assert _parse_key(shared) == before  # and never mutated
        first, second = modules
        assert first.fingerprint() == second.fingerprint()
        assert first.id_bound == second.id_bound
        # The shared parse equals a fresh, uncached one.
        fresh = _parse_donor.__wrapped__(add.declarations, add.function_lines)
        assert _parse_key(fresh) == before


def test_malformed_records_still_fail_pre(references):
    ctx = Context.start(references[0].module, references[0].inputs)
    bound = ctx.module.id_bound
    malformed = [
        AddFunction(declarations=["OpNotAnOpcode %1"], function_lines=[]),
        AddFunction(function_lines=["garbage"]),
        AddFunction(function_lines=[["not", "text"]]),  # unhashable member
        AddFunction(declarations=7),  # type: ignore[arg-type]
    ]
    for add in malformed:
        for _ in range(2):  # the second call answers from the memo
            assert add._parse() is None
            assert not add.precondition(ctx)
    assert apply_sequence(ctx, malformed) == [False] * len(malformed)
    assert ctx.module.id_bound == bound
