"""Digest answers: a reduction candidate that an earlier probe on the same
harness already replayed is answered by its content digest, and replayed
again only when the probe cache must read the module.

Findings of one fuzzed variant share their transformation objects, so their
reductions meet the same candidates; so do the passes of one pipeline.  The
replay memo (:meth:`repro.perf.probe_cache.ProbeCache.replayed`) keys each
candidate by the identities of its original, inputs and transformations.
These tests pin that the answers are exactly what a full replay gives.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.perf.probe_cache as probe_cache_module
from repro.compilers import make_target
from repro.compilers.targets import NON_GPU_TARGET_NAMES
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.perf import ProbeCache
from repro.reduce import DEFAULT_PASS_NAMES, ReductionConfig

OPTIONS = FuzzerOptions(max_transformations=100)
SEEDS = range(12)


def _harness(references, donors, probe_cache=True) -> Harness:
    return Harness(
        [make_target(name) for name in NON_GPU_TARGET_NAMES],
        references,
        donors,
        OPTIONS,
        probe_cache=probe_cache,
    )


def _findings(references, donors, seeds=SEEDS) -> list:
    return _harness(references, donors).run_campaign(seeds).findings


def _outputs(results) -> list:
    return [(r.to_json(), [list(h) for h in r.history]) for r in results]


def _uncached(references, donors, findings) -> list:
    """Each finding reduced alone on a fresh harness that replays every
    probe."""
    return _outputs(
        _harness(references, donors, probe_cache=False).reduce_finding(f)
        for f in findings
    )


@pytest.fixture(scope="module")
def findings(references, donors):
    return _findings(references, donors)


@pytest.fixture(scope="module")
def uncached(references, donors, findings):
    return _uncached(references, donors, findings)


def test_one_harness_answers_repeat_candidates_identically(
    references, donors, findings, uncached
):
    harness = _harness(references, donors)
    results = [harness.reduce_finding(f) for f in findings]
    assert _outputs(results) == uncached
    replays = sum(r.replay_stats.replays for r in results)
    tests_run = sum(r.tests_run for r in results)
    answers = sum(r.replay_stats.digest_answers for r in results)
    assert replays < tests_run
    assert answers > 0


def test_the_memo_stays_within_its_bound(
    references, donors, findings, uncached, monkeypatch
):
    monkeypatch.setattr(probe_cache_module, "MAX_REPLAYS", 8)
    harness = _harness(references, donors)
    sizes = []
    remember = ProbeCache.remember_replay

    def remember_and_measure(self, *args):
        remember(self, *args)
        sizes.append(len(self._replays))

    monkeypatch.setattr(ProbeCache, "remember_replay", remember_and_measure)
    assert _outputs(harness.reduce_finding(f) for f in findings) == uncached
    assert max(sizes) == 8
    harness.probe_cache.clear()
    assert not harness.probe_cache._replays


def test_an_entry_pins_every_object_its_key_names(references, donors):
    """While an entry lives, the original and the candidate's
    transformations cannot be freed, so no id in its key can be reused;
    once it is gone, they can."""
    program = references[0]
    fuzzed = _harness(references, donors).fuzzer.run(
        program.module, program.inputs, 0
    )
    original = program.module.clone()
    candidate = list(fuzzed.transformations[:6])
    refs = [weakref.ref(t) for t in candidate] + [weakref.ref(original)]
    cache = ProbeCache()
    key, entry = cache.replayed(original, program.inputs, candidate)
    assert entry is None
    cache.remember_replay(key, original, candidate, "digest", {})
    del fuzzed, original, candidate
    gc.collect()
    assert all(ref() is not None for ref in refs)
    cache.clear()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_no_stale_identity_is_ever_reused(references, donors, monkeypatch):
    """Reduce, drop the findings, collect, reduce new findings (some the
    same content under new objects): every result matches a full replay.
    A small memo evicts entries, so their pinned objects can be freed and
    their ids recycled while the harness lives on."""
    monkeypatch.setattr(probe_cache_module, "MAX_REPLAYS", 16)
    harness = _harness(references, donors)
    for seeds in (range(0, 6), range(3, 9)):
        batch = _findings(references, donors, seeds)
        expected = _uncached(references, donors, batch)
        assert _outputs(harness.reduce_finding(f) for f in batch) == expected
        del batch
        gc.collect()


def test_a_digest_answer_is_still_rechecked(references, donors, findings):
    """With ``verify_every=1`` every outcome hit is re-checked, and a probe
    the replay memo knows replays its candidate for the re-check: only
    probes that miss the outcome memo yet hit every stage and execution
    memo stay answered without a replay."""
    seeds = [f.seed for f in findings]
    variant = [f for f in findings if f.seed == max(seeds, key=seeds.count)]
    assert len(variant) > 1
    expected = _uncached(references, donors, variant)
    answers = {}
    for verify_every in (0, 1):
        cache = ProbeCache(verify_every=verify_every)
        harness = _harness(references, donors, probe_cache=cache)
        results = [harness.reduce_finding(f) for f in variant]
        assert _outputs(results) == expected
        answers[verify_every] = sum(r.replay_stats.digest_answers for r in results)
    assert cache.stats.verified == cache.stats.outcome_hits > 0
    assert cache.stats.poisoned == 0
    assert answers[1] < answers[0]


def test_passes_of_one_pipeline_share_replays(references, donors, findings):
    """A policy-less pipeline keeps one verdict memo per pass scope; the
    replay memo spans them, so a candidate one pass probed is not replayed
    again by another.  Over these 29 findings the pipeline replayed 938
    candidates before the memo existed."""
    harness = _harness(references, donors)
    results = harness.reduce_all(
        findings, ReductionConfig(passes=DEFAULT_PASS_NAMES)
    )
    assert len(findings) == 29
    assert sum(r.replay_stats.replays for r in results) <= 937
