"""The probe cache is on by default and lives for one unit of work: a
harness clears the cache it built when a seed starts, the service clears
its finalize harness's cache once a campaign's reductions end, and every
memo is LRU-capped.  None of this changes a result."""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.cli import campaign_main
from repro.compilers import make_target, make_targets
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.perf import ProbeCache
from repro.perf import probe_cache as probe_cache_module
from repro.observability import read_trace
from repro.perf.parallel import CampaignSpec
from repro.robustness import RobustnessConfig
from repro.service import (
    CampaignManifest,
    CampaignService,
    CampaignStore,
    ServiceConfig,
)
from repro.service import state as st
from repro.service.store import spec_from_json, spec_to_json

BENCH_DIR = Path(__file__).resolve().parents[2] / "perfbench"


def _memos(cache: ProbeCache) -> dict[str, set]:
    return {
        "outcomes": set(cache._outcomes),
        "stages": set(cache._stages),
        "exec": set(cache._exec),
        "validate": set(cache._validate),
        "modules": set(cache._modules),
    }


def _harness(references, donors, **kwargs) -> Harness:
    return Harness(
        [make_target("SwiftShader"), make_target("spirv-opt")],
        references,
        donors,
        FuzzerOptions(max_transformations=40),
        **kwargs,
    )


def test_harness_caches_by_default_and_retries_turn_it_off(references, tmp_path):
    targets = [make_target("SwiftShader")]
    assert isinstance(Harness(targets, references).probe_cache, ProbeCache)
    trace = tmp_path / "trace.jsonl"
    retrying = Harness(
        targets, references, robustness=RobustnessConfig(retries=1), tracer=trace
    )
    retrying.tracer.close()
    assert retrying.probe_cache is None
    assert retrying.metrics.counter("probe_cache.disabled") == 1
    events = [e for e in read_trace(trace) if e["ev"] == "probe_cache.disabled"]
    assert [e["reason"] for e in events] == ["verdict-stability-retries"]
    assert Harness(targets, references, probe_cache=False).probe_cache is None
    off = Harness(targets, references, probe_cache=False, tracer=tmp_path / "off.jsonl")
    off.tracer.close()
    assert off.metrics.counter("probe_cache.disabled") == 0


def test_campaign_cli_with_retries_reports_the_cache_off(capsys):
    """Every ``repro-campaign --retries N`` run now counts the disabled
    cache, since the cache is on by default."""
    args = ["--seeds", "1", "--max-transformations", "20", "--retries", "1"]
    assert campaign_main([*args, "--metrics"]) == 0
    assert re.search(r"^  probe_cache\.disabled +1$", capsys.readouterr().out, re.M)


def test_run_seed_keeps_only_its_seed_and_cumulative_stats(references, donors):
    # Seeds 0 and 1 fuzz different reference programs, so seed 1 also makes
    # its own reference probes whichever harness runs it.
    assert len(references) > 1
    harness = _harness(references, donors)
    harness.run_seed(0)
    after_seed_0 = _memos(harness.probe_cache)
    harness.run_seed(1)

    alone = {seed: _harness(references, donors) for seed in (0, 1)}
    for seed, fresh in alone.items():
        fresh.run_seed(seed)
    assert after_seed_0 == _memos(alone[0].probe_cache)
    assert _memos(harness.probe_cache) == _memos(alone[1].probe_cache)
    assert after_seed_0["stages"] - _memos(harness.probe_cache)["stages"]

    totals = harness.probe_cache.stats.to_json()
    parts = [fresh.probe_cache.stats.to_json() for fresh in alone.values()]
    assert totals == {name: sum(p[name] for p in parts) for name in totals}
    assert totals["probes"] > 0
    # The registry sees the same cumulative counters.
    assert harness.metrics.counter("probe_cache.probes") == totals["probes"]


def test_a_cache_passed_in_is_not_cleared_by_run_seed(references, donors):
    cache = ProbeCache()
    harness = _harness(references, donors, probe_cache=cache)
    harness.run_seed(0)
    after_seed_0 = _memos(cache)
    harness.run_seed(1)
    assert all(
        after_seed_0[name] <= keys for name, keys in _memos(cache).items()
    )


def test_validation_memo_stays_at_its_cap(monkeypatch, references):
    monkeypatch.setattr(probe_cache_module, "MAX_EXEC", 4)
    validated: set[str] = set()
    validate = probe_cache_module.validate

    def recording_validate(module):
        validated.add(module.content_digest())
        return validate(module)

    monkeypatch.setattr(probe_cache_module, "validate", recording_validate)
    cache = ProbeCache()
    target = make_target("spirv-opt")
    assert target.validates_output
    program = references[0]
    fuzzer = _harness(references, [], probe_cache=False).fuzzer
    for seed in range(12):
        fuzzed = fuzzer.run(program.module, program.inputs, seed)
        variant, inputs = fuzzed.variant, fuzzed.context.inputs
        assert cache.run(target, variant, inputs) == target.run(variant, inputs)
        assert len(cache._validate) <= 4
        assert len(cache._exec) <= 4
    assert len(validated) > 4
    assert len(cache._validate) == 4


def test_finalize_clears_its_harness_cache(tmp_path):
    spec = CampaignSpec(
        kind="core",
        target_names=("SwiftShader", "NVIDIA"),
        reference_names=("arith_mix_0", "loop_sum_5"),
        donor_names=("donor_math_0",),
        options=FuzzerOptions(max_transformations=40),
    )
    assert spec.probe_cache
    service = CampaignService(
        CampaignStore(tmp_path / "store"),
        ServiceConfig(workers=1, batch_size=2, poll_interval=0.02),
    )
    service.start()
    try:
        manifest = CampaignManifest("c0", spec, (0, 1), reduce=1)
        assert service.submit(manifest) is None
        service.run_until_idle(max_seconds=120)
        assert service.store.state("c0") == st.DONE
        assert service.store.read_result("c0")["reductions"]
        assert len(service._harnesses) == 1
        cache = service._harnesses.get(spec).probe_cache
        assert cache.stats.probes > 0
        assert not any(_memos(cache).values())
    finally:
        service.shutdown()


def test_stored_specs_keep_their_cache_setting_and_default_to_on():
    stored = spec_to_json(CampaignSpec("core", ("SwiftShader",), probe_cache=False))
    assert spec_from_json(stored).probe_cache is False
    del stored["probe_cache"]
    assert spec_from_json(stored).probe_cache is True


def test_campaign_workload_matches_its_pins_with_the_cache_on():
    from repro.corpus import donor_programs, reference_programs

    sys.path.insert(0, str(BENCH_DIR))
    try:
        from workloads import MAX_TRANSFORMATIONS, load_pins, seed_run_pin
    finally:
        sys.path.remove(str(BENCH_DIR))
    pins = load_pins()["seeds"]
    harness = Harness(
        make_targets(),
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS),
    )
    assert harness.probe_cache is not None
    for seed in range(1, 13):
        before = harness.metrics.counter("probes")
        run = harness.run_seed(seed)
        probes = harness.metrics.counter("probes") - before
        assert seed_run_pin(run, probes) == pins[str(seed)][:4], seed
    assert harness.probe_cache.stats.stage_hits > 0
