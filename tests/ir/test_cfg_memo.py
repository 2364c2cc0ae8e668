"""The CFG memo carried with each function (``Function._cfg_memo``) is
invisible: a memoized :class:`Cfg` equals a memo-free build field by field
after every fuzzed transformation and every pass, and no consumer mutates
the shared analysis."""

from __future__ import annotations

import copy

from repro.compilers import make_target, make_targets
from repro.compilers.base import BugContext, CompilerCrash
from repro.core.context import Context
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.harness import Harness
from repro.core.transformation import apply_sequence
from repro.ir.analysis import cfg as cfg_module
from repro.ir.analysis.cfg import Cfg
from repro.ir.module import Module
from repro.perf import ProbeCache
from repro.perf import probe_cache as probe_cache_module

_FIELDS = ("successors", "predecessors", "reachable", "idom", "rpo", "_rpo_index")


def _check_module(module: Module) -> int:
    """Assert every function's memoized CFG matches a fresh build; return
    how many builds were served by the memo."""
    hits = 0
    for function in module.functions:
        memo = function._cfg_memo
        memoized = Cfg.build(function)
        hits += memo is not None and function._cfg_memo is memo
        bare = function.clone()
        bare._cfg_memo = None
        fresh = Cfg.build(bare)
        for name in _FIELDS:
            assert getattr(memoized, name) == getattr(fresh, name), name
        assert memoized.function is function
    return hits


def test_memoized_cfg_matches_a_fresh_build(references, donors):
    fuzzer = Fuzzer(donors, FuzzerOptions(max_transformations=40))
    targets = make_targets()
    hits = 0
    for program in references[:5]:
        for seed in (0, 1):
            fuzzed = fuzzer.run(program.module, program.inputs, seed)
            ctx = Context.start(program.module, program.inputs)
            for transformation in fuzzed.transformations:
                apply_sequence(ctx, [transformation])
                hits += _check_module(ctx.module)
            for target in targets:
                work = ctx.module.clone()
                bugs = BugContext(target.enabled_bugs)
                for opt_pass in target.passes:
                    bugs.current_pass = opt_pass.name
                    try:
                        opt_pass.run(work, bugs)
                    except CompilerCrash:
                        break
                    work.touch()
                    hits += _check_module(work)
    assert hits > 0, "no build was served by the memo"


def test_reduction_never_mutates_a_memo(monkeypatch, references, donors):
    built: list[tuple[tuple, tuple]] = []
    original = cfg_module._analyze

    def analyze(shape):
        analysis = original(shape)
        built.append((analysis, copy.deepcopy(analysis)))
        return analysis

    monkeypatch.setattr(cfg_module, "_analyze", analyze)
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
    assert built
    assert all(analysis == snapshot for analysis, snapshot in built)
