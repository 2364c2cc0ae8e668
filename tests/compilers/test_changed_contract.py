"""The ``Pass.run`` contract the probe cache relies on: a pass that returns
False left the module's content unchanged, so its cached content digest may
be kept without a rebuild (``ProbeCache._staged_compile``)."""

from __future__ import annotations

from repro.compilers import make_targets
from repro.compilers.base import BugContext, CompilerCrash
from repro.compilers.pipeline import standard_pipeline, tool_pipeline
from repro.core.fuzzer import Fuzzer, FuzzerOptions

from tests.ir.test_fingerprint_cache import _uncached_type_table


def _pipelines():
    """Every Table 2 target's passes under its bug set, plus both bug-free
    pipelines (the tool ``optimize`` path)."""
    pipelines = [(t.name, t.passes, t.enabled_bugs) for t in make_targets()]
    pipelines.append(("standard", standard_pipeline(), frozenset()))
    pipelines.append(("tool", tool_pipeline(), frozenset()))
    return pipelines


def _modules(references, donors):
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=60))
    for program in references:
        yield program.module
        for seed in (0, 1):
            yield fuzzer.run(program.module, program.inputs, seed).variant


def test_unchanged_pass_leaves_the_fingerprint_unchanged(references, donors):
    pipelines = _pipelines()
    unchanged_runs = changed_runs = 0
    for module in _modules(references, donors):
        for name, passes, enabled in pipelines:
            work = module.clone()
            bugs = BugContext(enabled)
            for opt_pass in passes:
                work.touch()
                before = work.fingerprint()
                bugs.current_pass = opt_pass.name
                try:
                    changed = opt_pass.run(work, bugs)
                except CompilerCrash:
                    break
                work.touch()
                if changed:
                    changed_runs += 1
                    continue
                unchanged_runs += 1
                assert work.fingerprint() == before, (
                    f"{name}: {opt_pass.name} returned False but changed "
                    "the module"
                )
                assert work.type_table() == _uncached_type_table(work)
    assert unchanged_runs > 0 and changed_runs > 0
