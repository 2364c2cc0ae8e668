"""The freshness rule: an id at or above ``id_bound`` is fresh without a
def-map walk; below the bound only undefined ids are fresh.

``Module.is_fresh`` (and so ``claim_id``) and ``Context.is_fresh`` answer
through that shortcut, so both are checked against the definition itself —
``i >= 1 and i not in module.def_map()`` — after every application of
fuzzed transformation sequences over the reference corpus.
"""

from __future__ import annotations

import pytest

from repro.core.context import Context
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.transformation import apply_sequence
from repro.ir.module import IrError


def _assert_fresh_rule(ctx: Context) -> None:
    module = ctx.module
    defined = module.def_map()
    for i in range(-1, module.id_bound + 4):
        expected = i >= 1 and i not in defined
        assert module.is_fresh(i) is expected, i
        assert ctx.is_fresh(i) is expected, i
    assert max(defined) < module.id_bound  # the invariant the rule rests on


@pytest.mark.parametrize("seed", [0, 1])
def test_fresh_rule_holds_after_every_application(references, donors, seed):
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=40))
    for program in references[:3]:
        fuzzed = fuzzer.run(program.module, program.inputs, seed)
        ctx = Context.start(program.module, program.inputs)
        _assert_fresh_rule(ctx)
        for transformation in fuzzed.transformations:
            apply_sequence(ctx, [transformation])
            _assert_fresh_rule(ctx)
        assert ctx.module.fingerprint() == fuzzed.variant.fingerprint()


def test_claim_id_rejects_every_defined_id(references):
    module = references[0].module.clone()
    for defined in module.def_map():
        with pytest.raises(IrError):
            module.claim_id(defined)


def test_claim_id_above_the_bound_grows_it(references):
    module = references[0].module.clone()
    wanted = module.id_bound + 5
    assert module.claim_id(wanted) == wanted
    assert module.id_bound == wanted + 1
    assert module.is_fresh(wanted)  # claimed, but nothing defines it yet
    assert not module.is_fresh(0)
