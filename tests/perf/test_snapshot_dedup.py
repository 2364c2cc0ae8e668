"""The probe cache's module store keeps one snapshot per (digest, id bound):
a stage miss whose output it already holds refreshes that snapshot's LRU
position instead of cloning a duplicate, and nothing observable changes.
Every mid-pipeline module the cache materializes — an input clone, a held
snapshot or a prefix rebuild — has the digest the stage memo promised."""

from __future__ import annotations

from repro.compilers import make_target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.ir.module import Module
from repro.perf import ProbeCache
from repro.perf import probe_cache as probe_cache_module


def _counting_clones(monkeypatch) -> list[int]:
    calls = [0]
    original = Module.clone

    def clone(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(Module, "clone", clone)
    return calls


def test_held_digest_is_not_cloned_again(monkeypatch, straightline_module):
    cache = ProbeCache()
    digest = straightline_module.content_digest()
    with cache.fan_out():
        cache._remember_module(digest, straightline_module)
        held = cache._modules[digest]
        other = straightline_module.clone()
        cache._remember_module("other", other)
        assert list(cache._modules) == [digest, "other"]

        clones = _counting_clones(monkeypatch)
        cache._remember_module(digest, straightline_module.clone())
        assert clones[0] == 1  # only the argument's clone above, none inside
        assert cache._modules[digest] is held
        assert list(cache._modules) == ["other", digest]  # LRU refreshed


def test_different_id_bound_replaces_the_snapshot(monkeypatch, straightline_module):
    cache = ProbeCache()
    digest = straightline_module.content_digest()
    with cache.fan_out():
        cache._remember_module(digest, straightline_module)
        wider = straightline_module.clone()
        wider.id_bound += 10
        assert wider.content_digest() == digest  # the digest ignores id_bound

        clones = _counting_clones(monkeypatch)
        cache._remember_module(digest, wider)
        assert clones[0] == 1
        assert cache._modules[digest].id_bound == wider.id_bound


#: ``ProbeCacheStats`` of the fixed run below, recorded before the store
#: stopped cloning held snapshots; the dedup must not move any counter.
#: ``store_rebuilds`` alone was re-pinned (5 -> 12) when reductions stopped
#: keeping snapshots: the store now lives only inside ``run_seed``'s
#: fan-out, so a reduction's mid-pipeline materializations replay their
#: prefix instead.
PINNED_STATS = {
    "probes": 152,
    "outcome_hits": 30,
    "outcome_misses": 122,
    "stage_hits": 395,
    "stage_misses": 880,
    "exec_hits": 27,
    "exec_misses": 62,
    "validate_hits": 15,
    "optimize_hits": 17,
    "optimize_misses": 10,
    "store_rebuilds": 12,
    "verified": 0,
    "poisoned": 0,
    "uncacheable": 0,
}


def test_fixed_triage_run_stats_are_unchanged(monkeypatch, references, donors):
    held_hits = [0]
    original = ProbeCache._remember_module

    def remember(self, digest, module):
        held = self._modules.get(digest)
        if held is not None and held.id_bound == module.id_bound:
            held_hits[0] += 1
        original(self, digest, module)

    monkeypatch.setattr(ProbeCache, "_remember_module", remember)
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
    # A small store, so evictions force prefix rebuilds too.
    monkeypatch.setattr(probe_cache_module, "MAX_MODULES", 8)
    cache = ProbeCache()
    harness = Harness(
        [make_target("SwiftShader"), make_target("spirv-opt")],
        references,
        donors,
        FuzzerOptions(max_transformations=40),
        probe_cache=cache,
    )
    findings = harness.run_campaign(range(8)).findings
    reduced = [harness.reduce_finding(f) for f in findings[:4]]
    assert [(len(r.transformations), r.tests_run) for r in reduced] == [
        (7, 55),
        (2, 24),
        (3, 38),
        (1, 9),
    ]
    assert cache.stats.to_json() == PINNED_STATS
    assert held_hits[0] > 0, "the run never re-stored a held digest"
    assert rebuilds[0] == cache.stats.store_rebuilds > 0
    assert not mismatches
