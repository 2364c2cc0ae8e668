"""Stage records are shared across targets by the bugs each pass consulted.

A stage record keeps the bugs its pass run asked about while they were
disabled (``consulted − relevant``) and serves any target whose relevant set
contains the fired bugs and none of those.  The suites below check that the
sharing is invisible: whatever order the nine Table 2 targets probe a
variant in, findings and outcomes equal the uncached reference; a consulted,
disabled bug blocks reuse for a target that enables it; an unconsulted bug
does not; and every mid-pipeline module the cache rebuilds under one
target, from a record another target wrote, has the promised digest.
"""

from __future__ import annotations

import random

from repro.compilers import make_target, make_targets
from repro.compilers.bugs import bugs_for_pass
from repro.compilers.passes import ConstantFoldingPass
from repro.compilers.pipeline import Target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.ir import IntType, ModuleBuilder, VoidType
from repro.perf import CachingTarget, ProbeCache
from repro.perf import probe_cache as probe_cache_module

from tests.robustness.faults import finding_key

SEEDS = range(12)
I32_MAX = 2**31 - 1


def _orders():
    names = [t.name for t in make_targets()]
    shuffled = list(names)
    random.Random(7).shuffle(shuffled)
    return {
        "forward": names,
        "reversed": names[::-1],
        "shuffled": shuffled,
    }


def _harness(references, donors, names, probe_cache):
    return Harness(
        [make_target(name) for name in names],
        references,
        donors,
        FuzzerOptions(max_transformations=60),
        probe_cache=probe_cache,
    )


def _findings_by_target(runs):
    return sorted(finding_key(f) for run in runs for f in run.findings)


def test_target_order_never_changes_findings_or_outcomes(references, donors):
    orders = _orders()
    plain = _harness(references, donors, orders["forward"], False)
    expected = _findings_by_target(plain.run_seed(seed) for seed in SEEDS)
    assert expected, "workload produced no findings to compare"
    programs = [references[seed % len(references)] for seed in SEEDS]
    variants = [
        plain.fuzzer.run(program.module, program.inputs, seed)
        for seed, program in zip(SEEDS, programs)
    ]
    plain_targets = {t.name: t for t in make_targets()}
    for order, names in orders.items():
        harness = _harness(references, donors, names, True)
        got = _findings_by_target(harness.run_seed(seed) for seed in SEEDS)
        assert got == expected, f"{order}: findings differ from the uncached run"

        cache = ProbeCache()
        wrapped = [CachingTarget(plain_targets[name], cache) for name in names]
        for fuzzed in variants:
            inputs = fuzzed.context.inputs
            cache.clear()
            with cache.fan_out():
                for target in wrapped:
                    assert target.run(fuzzed.variant, inputs) == target.target.run(
                        fuzzed.variant, inputs
                    ), f"{order}: {target.name} outcome differs"
        assert cache.stats.stage_hits > 0


def _fold_module(lhs: int, rhs: int):
    """out = lhs + rhs, both constants: constfold folds the add."""
    b = ModuleBuilder()
    out = b.output("out", IntType())
    f = b.function("main", VoidType())
    blk = f.block()
    blk.store(out, blk.iadd(b.int_const(lhs), b.int_const(rhs)))
    blk.ret()
    b.entry_point(f.result_id)
    return b.build()


def _constfold_target(name: str) -> Target:
    """*name*'s Table 2 bug set in front of a constfold-only pipeline."""
    return Target(
        name,
        "test",
        "N/A",
        make_target(name).enabled_bugs,
        passes=[ConstantFoldingPass()],
    )


def _stage_records(cache: ProbeCache, module) -> list:
    return cache._stages[(module.content_digest(), "constfold")]


def test_consulted_disabled_bug_blocks_reuse():
    module = _fold_module(I32_MAX, 1)  # overflows: saturate-bug trigger holds
    mesa, mesa_old = _constfold_target("Mesa"), _constfold_target("Mesa-Old")
    assert "constfold-overflow-saturate" not in mesa.enabled_bugs
    assert "constfold-overflow-saturate" in mesa_old.enabled_bugs
    cache = ProbeCache()
    assert cache.run(mesa, module) == mesa.run(module)
    (record,) = _stage_records(cache, module)
    assert record[1] == {"constfold-overflow-saturate"}  # consulted while off

    relevant = mesa_old.enabled_bugs & bugs_for_pass("constfold")
    assert cache._lookup_stage((module.content_digest(), "constfold"), relevant) is None
    hits = cache.stats.stage_hits
    got = cache.run(mesa_old, module)
    assert cache.stats.stage_hits == hits
    assert got == mesa_old.run(module)
    assert got.fired_miscompile_bugs == {"constfold-overflow-saturate"}
    assert got != cache.run(mesa, module)


def test_unconsulted_bug_does_not_block_reuse():
    module = _fold_module(2, 3)  # no overflow: the saturate bug is never asked
    mesa, mesa_old = _constfold_target("Mesa"), _constfold_target("Mesa-Old")
    mesa_relevant = mesa.enabled_bugs & bugs_for_pass("constfold")
    old_relevant = mesa_old.enabled_bugs & bugs_for_pass("constfold")
    assert not old_relevant <= mesa_relevant  # the old F ⊆ S ⊆ R rule misses
    cache = ProbeCache()
    first = cache.run(mesa, module)
    (record,) = _stage_records(cache, module)
    assert record[1] == frozenset()
    hits = cache.stats.stage_hits
    got = cache.run(mesa_old, module)
    assert cache.stats.stage_hits == hits + 1
    assert got == mesa_old.run(module) == first


def test_store_prunes_only_dominated_records():
    cache = ProbeCache()
    key = ("digest", "constfold")
    wide = ("ok", frozenset({"a", "b"}), frozenset(), "out")
    other = ("ok", frozenset({"c"}), frozenset(), "out")
    cache._store_stage(key, wide)
    cache._store_stage(key, other)
    # Neither off set contains the other: both serve sets the other cannot.
    assert cache._stages[key] == [wide, other]
    narrow = ("ok", frozenset({"a"}), frozenset(), "out")
    cache._store_stage(key, narrow)
    assert cache._stages[key] == [other, narrow]  # narrow serves all wide did
    assert cache._lookup_stage(key, frozenset({"b", "c"})) is narrow
    assert cache._lookup_stage(key, frozenset({"a", "c"})) is None


def test_rebuilds_from_shared_records_have_the_promised_digest(
    monkeypatch, references, donors
):
    mismatches: list[tuple[int, str, str]] = []
    rebuilds = [0]
    materialize = ProbeCache._materialize

    def checked_materialize(self, passes, enabled, module, digest, index, current):
        held = current == digest or current in self._modules
        work = materialize(self, passes, enabled, module, digest, index, current)
        rebuilds[0] += not held
        if work.content_digest() != current:
            mismatches.append((index, current, work.content_digest()))
        return work

    monkeypatch.setattr(ProbeCache, "_materialize", checked_materialize)
    # A one-snapshot store, so most materializations replay a prefix under
    # a target other than the one that recorded it.
    monkeypatch.setattr(probe_cache_module, "MAX_MODULES", 1)
    harness = _harness(references, donors, _orders()["shuffled"], True)
    for seed in SEEDS:
        harness.run_seed(seed)
    assert rebuilds[0] == harness.probe_cache.stats.store_rebuilds > 0
    assert not mismatches
