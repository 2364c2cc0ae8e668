"""Per-pass translation validation by execution: each bug-free pass of
``standard_pipeline()`` and ``tool_pipeline()`` leaves the interpreter's
results unchanged on the program's inputs, over the references and fuzzed
variants.  This is a differential check at pass granularity: a pass that
miscompiles without any injected bug would manufacture phantom findings.

Validity is asserted only on the pipeline's final output, on purpose: a
single bug-free pass may leave invalid IR that a later pass cleans up.
With ``max_transformations=120``, ``float_iter_1`` fuzzed with seed 4
shows both known cases: ``constfold`` leaves blocks in an order that
violates dominance, and ``simplifycfg`` leaves ``%1308 used but never
defined``; the pipeline's output is valid again.
"""

from __future__ import annotations

from repro.compilers.base import BugContext
from repro.compilers.pipeline import standard_pipeline, tool_pipeline
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.interp.errors import ExecError
from repro.interp.interpreter import execute
from repro.ir.validator import validate


def _programs(references, donors):
    """(name, module, inputs) for each reference and two fuzzed variants."""
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=60))
    for program in references:
        yield program.name, program.module, program.inputs
        for seed in (0, 1):
            variant = fuzzer.run(program.module, program.inputs, seed).variant
            yield f"{program.name} seed {seed}", variant, program.inputs


def test_every_bug_free_pass_preserves_results(references, donors):
    checked = 0
    for name, module, inputs in _programs(references, donors):
        try:
            expected = execute(module, inputs)
        except ExecError:
            continue  # nothing to preserve (e.g. the fuel ran out)
        for passes in (standard_pipeline(), tool_pipeline()):
            work = module.clone()
            bugs = BugContext(frozenset())
            for opt_pass in passes:
                bugs.current_pass = opt_pass.name
                opt_pass.run(work, bugs)
                work.touch()
                assert expected.agrees_with(execute(work, inputs)), (
                    f"{name}: bug-free {opt_pass.name} changed the results"
                )
                checked += 1
            assert validate(work) == [], f"{name}: pipeline output is invalid"
    assert checked > 0
