"""The probe cache keeps module snapshots only inside ``fan_out()``, the
scope in which ``Harness.run_seed`` probes one variant on every target.
Reductions run outside it and store nothing; leaving the scope, even by an
exception, empties the store; and none of this changes a result."""

from __future__ import annotations

import pytest

from repro.compilers import make_target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.ir.module import Module
from repro.perf import ProbeCache


def _harness(references, donors, targets=None, **kwargs) -> Harness:
    return Harness(
        targets or [make_target("SwiftShader"), make_target("spirv-opt")],
        references,
        donors,
        FuzzerOptions(max_transformations=40),
        **kwargs,
    )


def _recording_store(monkeypatch) -> dict[str, int]:
    """Count ``_remember_module`` calls, the clones made inside them, and
    the largest store size they left behind."""
    seen = {"calls": 0, "clones": 0, "peak": 0}
    remember = ProbeCache._remember_module
    clone = Module.clone

    def counting_clone(self):
        seen["clones"] += 1
        return clone(self)

    def recording_remember(self, digest, module):
        seen["calls"] += 1
        monkeypatch.setattr(Module, "clone", counting_clone)
        try:
            remember(self, digest, module)
        finally:
            monkeypatch.setattr(Module, "clone", clone)
        seen["peak"] = max(seen["peak"], len(self._modules))

    monkeypatch.setattr(ProbeCache, "_remember_module", recording_remember)
    return seen


def test_reduction_keeps_no_snapshots(monkeypatch, references, donors):
    harness = _harness(references, donors)
    findings = harness.run_campaign(range(8)).findings
    assert findings
    assert not harness.probe_cache._modules
    seen = _recording_store(monkeypatch)
    for finding in findings[:2]:
        reduced = harness.reduce_finding(finding)
        assert reduced.tests_run > 0
    assert seen["calls"] > 0, "the reductions never missed a stage"
    assert seen["clones"] == 0
    assert seen["peak"] == 0
    assert not harness.probe_cache._modules


def test_run_seed_fills_the_store_and_empties_it(monkeypatch, references, donors):
    harness = _harness(references, donors)
    seen = _recording_store(monkeypatch)
    harness.run_seed(0)
    assert seen["clones"] > 0
    assert seen["peak"] > 0
    assert not harness.probe_cache._modules
    assert harness.probe_cache._fan_out_depth == 0


def test_an_exception_empties_and_closes_the_scope(straightline_module):
    cache = ProbeCache()
    digest = straightline_module.content_digest()
    with pytest.raises(RuntimeError):
        with cache.fan_out():
            with cache.fan_out():
                cache._remember_module(digest, straightline_module)
            assert list(cache._modules) == [digest]  # the outer scope holds
            raise RuntimeError("boom")
    assert not cache._modules
    cache._remember_module(digest, straightline_module)
    assert not cache._modules


class _Raising:
    """A target whose every probe raises (as a broken target double would)."""

    name = "raising"

    def run(self, module, inputs=None):
        raise RuntimeError("probe failed")


def test_run_seed_that_raises_still_empties_the_store(references, donors):
    harness = _harness(
        references, donors, targets=[make_target("SwiftShader"), _Raising()]
    )
    with pytest.raises(RuntimeError, match="probe failed"):
        harness.run_seed(0)
    assert not harness.probe_cache._modules
    assert harness.probe_cache._fan_out_depth == 0


def _summary(run) -> list[tuple]:
    return [
        (f.target_name, f.signature, f.kind, f.optimized_flow, f.ground_truth_bug)
        for f in run.findings
    ]


def test_run_seed_inside_a_scope_matches_the_uncached_harness(references, donors):
    cached = _harness(references, donors)
    plain = _harness(references, donors, probe_cache=False)
    for seed in range(6):
        with cached.probe_cache.fan_out():
            got = cached.run_seed(seed)
            assert cached.probe_cache._fan_out_depth == 1
        want = plain.run_seed(seed)
        assert _summary(got) == _summary(want), seed
        assert got.transformation_count == want.transformation_count
        assert not cached.probe_cache._modules
    assert cached.metrics.counter("probes") == plain.metrics.counter("probes")
    assert cached.probe_cache.stats.stage_hits > 0
