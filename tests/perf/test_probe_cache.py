"""Probe-cache soundness: cached probes are byte-identical to uncached ones
on every path (staged, memo, campaign, reduction), faults are never cached,
and a poisoned cache evicts itself."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.compilers import make_target
from repro.compilers.base import TargetOutcome
from repro.compilers.bugs import BUG_CATALOG
from repro.compilers.pipeline import optimize
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.harness import Harness
from repro.core.transformation import sequence_to_json
from repro.perf import CachedOptimizer, CachingTarget, ProbeCache
from repro.reduce import ReductionConfig
from tests.robustness.faults import result_key

TARGET_NAMES = ["SwiftShader", "spirv-opt", "NVIDIA", "Mesa"]


def _variants(program, seeds, max_transformations=40):
    fuzzer = Fuzzer([], FuzzerOptions(max_transformations=max_transformations))
    out = []
    for seed in seeds:
        result = fuzzer.run(program.module, program.inputs, seed)
        out.append((result.variant, result.context.inputs))
    return out


def _finding_identity(finding):
    return (
        finding.seed,
        finding.target_name,
        finding.signature,
        finding.kind,
        finding.optimized_flow,
        sequence_to_json(finding.transformations),
    )


class TestCachedProbesAreByteIdentical:
    def test_staged_run_matches_plain_run_across_targets(self, references):
        cache = ProbeCache()
        targets = [make_target(name) for name in TARGET_NAMES]
        cached = [CachingTarget(t, cache) for t in targets]
        for program in references[:2]:
            for variant, inputs in _variants(program, range(4)):
                for plain, wrapped in zip(targets, cached):
                    assert wrapped.run(variant, inputs) == plain.run(
                        variant, inputs
                    )
        # The workload must actually share work for this test to mean much.
        assert cache.stats.outcome_misses > 0
        assert cache.stats.stage_hits > 0

    def test_second_pass_is_all_hits_and_still_identical(self, references):
        cache = ProbeCache()
        target = make_target("SwiftShader")
        wrapped = CachingTarget(target, cache)
        probes = _variants(references[0], range(4))
        fresh = [target.run(v, i) for v, i in probes]
        first = [wrapped.run(v, i) for v, i in probes]
        hits_before = cache.stats.outcome_hits
        second = [wrapped.run(v, i) for v, i in probes]
        assert first == fresh
        assert second == fresh
        assert cache.stats.outcome_hits == hits_before + len(probes)

    def test_cached_optimizer_matches_pipeline_optimize(self, references):
        cache = ProbeCache()
        cached_optimize = CachedOptimizer(cache)
        for variant, _inputs in _variants(references[0], range(3)):
            plain = optimize(variant)
            first = cached_optimize(variant)
            again = cached_optimize(variant)  # second call hits the memo
            assert first.fingerprint() == plain.fingerprint()
            assert again.fingerprint() == plain.fingerprint()
        assert cache.stats.optimize_hits > 0

    def test_cached_result_is_not_aliased(self, references):
        cache = ProbeCache()
        cached_optimize = CachedOptimizer(cache)
        variant, _inputs = _variants(references[0], [0])[0]
        first = cached_optimize(variant)
        first.functions.clear()
        first.touch()
        second = cached_optimize(variant)
        assert second.fingerprint() == optimize(variant).fingerprint()


def _campaign_harness(references, donors, **kwargs):
    return Harness(
        [make_target("SwiftShader"), make_target("spirv-opt")],
        references,
        donors,
        FuzzerOptions(max_transformations=40),
        **kwargs,
    )


class TestCachedCampaignAndReduction:
    def test_campaign_findings_identical(self, references, donors):
        seeds = range(8)
        plain = _campaign_harness(references, donors, probe_cache=False).run_campaign(
            seeds
        )
        cached_harness = _campaign_harness(references, donors, probe_cache=True)
        cached = cached_harness.run_campaign(seeds)
        assert result_key(cached) == result_key(plain)
        assert plain.findings, "workload produced no findings to compare"
        assert cached_harness.probe_cache.stats.probes > 0

    def test_serial_reduction_identical(self, references, donors):
        plain_harness = _campaign_harness(references, donors, probe_cache=False)
        finding = plain_harness.run_campaign(range(8)).findings[0]
        plain = plain_harness.reduce_finding(finding)
        cached_harness = _campaign_harness(references, donors, probe_cache=True)
        cached = cached_harness.reduce_finding(finding)
        assert sequence_to_json(cached.transformations) == sequence_to_json(
            plain.transformations
        )
        assert (cached.tests_run, cached.chunks_removed) == (
            plain.tests_run,
            plain.chunks_removed,
        )
        assert cached_harness.probe_cache.stats.stage_hits > 0

    def test_speculative_reduction_identical(self, references, donors):
        plain_harness = _campaign_harness(references, donors, probe_cache=False)
        finding = plain_harness.run_campaign(range(8)).findings[0]
        plain = plain_harness.reduce_finding(finding)
        cached_harness = _campaign_harness(references, donors, probe_cache=True)
        cached = cached_harness.reduce_finding(finding, ReductionConfig(workers=2))
        assert sequence_to_json(cached.transformations) == sequence_to_json(
            plain.transformations
        )
        assert cached.tests_run == plain.tests_run
        assert cached.history == plain.history


class _FlakyTarget:
    """A target double whose answer changes after the first call — exactly
    what a poisoned cache entry looks like from the outside."""

    name = "flaky"
    version = "1"
    gpu_type = "test"
    enabled_bugs = frozenset()

    def __init__(self):
        self.calls = 0

    def run(self, module, inputs=None):
        self.calls += 1
        if self.calls == 1:
            return TargetOutcome.crash("first answer")
        return TargetOutcome.crash("second answer")


class _FaultyTarget:
    """A target double that times out on every probe."""

    name = "faulty"
    version = "1"
    gpu_type = "test"
    enabled_bugs = frozenset()

    def run(self, module, inputs=None):
        return TargetOutcome.timeout(1.0)


class _FaultsOnRecheckTarget:
    """A target double that answers its first probe, then faults: a
    supervised target whose worker dies, times out or runs out of memory
    on the poison detector's re-check."""

    name = "faults-on-recheck"
    version = "1"
    gpu_type = "test"
    enabled_bugs = frozenset()

    def __init__(self, fault):
        self.fault = fault
        self.calls = 0

    def run(self, module, inputs=None):
        self.calls += 1
        if self.calls == 1:
            return TargetOutcome.crash("the answer")
        return self.fault


class TestCacheSafety:
    @pytest.mark.parametrize(
        "fault",
        [
            TargetOutcome.timeout(1.0),
            TargetOutcome.resource(),
            TargetOutcome.worker_crash("worker died"),
        ],
        ids=["timeout", "resource", "worker-crash"],
    )
    def test_a_faulted_recheck_keeps_the_cached_outcome(
        self, straightline_module, fault
    ):
        """Faults describe the environment: a faulted re-check is no
        evidence against the cached outcome, so nothing is evicted and the
        probe answers from the cache."""
        cache = ProbeCache(verify_every=1)
        target = _FaultsOnRecheckTarget(fault)
        wrapped = CachingTarget(target, cache)
        assert wrapped.run(straightline_module, {}).crash_message == "the answer"
        digest = straightline_module.content_digest()
        for outcome in (
            wrapped.run(straightline_module, {}),
            wrapped.run(lambda: straightline_module, {}, digest=digest),
        ):
            assert outcome.crash_message == "the answer"
        assert target.calls == 3  # both hits were re-checked
        assert (cache.stats.poisoned, cache.stats.verified) == (0, 0)
        assert len(cache._outcomes) == 1

    def test_poisoned_entry_is_detected_and_evicted(self, straightline_module):
        cache = ProbeCache(verify_every=1)
        target = _FlakyTarget()
        wrapped = CachingTarget(target, cache)
        first = wrapped.run(straightline_module, {})
        assert first.crash_message == "first answer"
        # The hit disagrees with a fresh recomputation: poison detected,
        # cache cleared, the fresh answer returned.
        second = wrapped.run(straightline_module, {})
        assert second.crash_message == "second answer"
        assert cache.stats.poisoned == 1
        assert not cache._outcomes

    def test_verified_hits_are_counted(self, straightline_module):
        cache = ProbeCache(verify_every=1)
        target = make_target("SwiftShader")
        wrapped = CachingTarget(target, cache)
        # Force the memo path (the staged path never consults verify):
        wrapped._staged = False
        baseline = target.run(straightline_module, {})
        assert wrapped.run(straightline_module, {}) == baseline
        assert wrapped.run(straightline_module, {}) == baseline
        assert cache.stats.verified == 1
        assert cache.stats.poisoned == 0

    def test_fault_outcomes_are_never_cached(self, straightline_module):
        cache = ProbeCache()
        wrapped = CachingTarget(_FaultyTarget(), cache)
        for _ in range(3):
            outcome = wrapped.run(straightline_module, {})
            assert outcome.kind.value == "timeout"
        assert cache.stats.outcome_hits == 0
        assert cache.stats.uncacheable == 3
        assert not cache._outcomes


class TestStageMemoKeyingAssumption:
    """The stage memo keys entries by ``enabled & bugs_for_pass(name)``,
    which is sound only while every bug id is referenced exclusively by its
    host pass.  Scan the pass sources to keep that invariant honest."""

    HOST_MODULE = {
        "constfold": "constfold",
        "copyprop": "copyprop",
        "dce": "dce",
        "simplifycfg": "simplify_cfg",
        "mem2reg": "mem2reg",
        "inline": "inline",
        "layout": "layout",
        "legalize": "legalize",
    }

    @staticmethod
    def _pass_sources():
        passes_dir = (
            Path(__file__).resolve().parents[2]
            / "src"
            / "repro"
            / "compilers"
            / "passes"
        )
        return {
            path.stem: path.read_text(encoding="utf-8")
            for path in passes_dir.glob("*.py")
            if path.stem != "__init__"
        }

    def test_bug_ids_appear_only_in_their_host_pass(self):
        sources = self._pass_sources()
        for bug_id, info in BUG_CATALOG.items():
            expected = self.HOST_MODULE[info.pass_name]
            hosts = {
                name
                for name, source in sources.items()
                if bug_id in source and name != "base"
            }
            assert expected in hosts or bug_id in sources["base"], (
                f"{bug_id} missing from its host pass"
            )
            assert hosts <= {expected}, (
                f"{bug_id} referenced by {sorted(hosts - {expected})}; the "
                "probe cache's per-pass bug keying (bugs_for_pass) is no "
                "longer sound"
            )

    def test_shared_helpers_firing_bugs_are_called_only_by_the_host(self):
        """``passes/base.py`` may host a bug inside a shared helper, but then
        only the bug's host pass may call that helper."""
        sources = self._pass_sources()
        base = sources["base"]
        for bug_id, info in BUG_CATALOG.items():
            if bug_id not in base:
                continue
            enclosing = None
            for match in re.finditer(r"^def (\w+)", base, re.MULTILINE):
                if match.start() > base.index(f'"{bug_id}"'):
                    break
                enclosing = match.group(1)
            assert enclosing, f"could not locate the helper hosting {bug_id}"
            expected = self.HOST_MODULE[info.pass_name]
            callers = {
                name
                for name, source in sources.items()
                if name != "base" and re.search(rf"\b{enclosing}\s*\(", source)
            }
            assert callers <= {expected}, (
                f"shared helper {enclosing} (fires {bug_id}) is called from "
                f"{sorted(callers - {expected})}; the probe cache's per-pass "
                "bug keying (bugs_for_pass) is no longer sound"
            )
