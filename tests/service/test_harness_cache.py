"""One harness per spec: the fleet worker's batch server and the service's
finalize share a spec-keyed, LRU-bounded :class:`HarnessCache`.

The batch server is driven in process with build-counting doubles; the
real-spec tests check that reusing one harness across campaigns leaves
every ``result.json`` byte-identical to a run on a fresh service.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.compilers import OutcomeKind, TargetOutcome, make_target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.corpus import reference_programs
from repro.perf.parallel import CampaignSpec
from repro.robustness import RobustnessConfig
from repro.service import (
    CampaignManifest,
    CampaignService,
    CampaignStore,
    ServiceConfig,
)
from repro.service import state as st
from repro.service.fleet import _HARNESS_CACHE_SIZE, HarnessCache, _BatchServer

from tests.service.doubles import (
    BUILDS,
    CountingSpec,
    FaultySeedSpec,
    RaisingFinalizeSpec,
    WellBehavedSpec,
)

REAL_SPEC = CampaignSpec(
    kind="core",
    target_names=("SwiftShader", "NVIDIA"),
    reference_names=("arith_mix_0", "loop_sum_5"),
    donor_names=("donor_math_0",),
    options=FuzzerOptions(max_transformations=40),
)


@pytest.fixture(autouse=True)
def _fresh_builds():
    BUILDS.clear()
    yield
    BUILDS.clear()


def _batch(server: _BatchServer, campaign: str, spec, seeds) -> list[tuple]:
    return list(server((campaign, 0, spec, tuple(seeds))))


# -- the batch server ---------------------------------------------------------


def test_campaigns_with_one_spec_share_one_build():
    server = _BatchServer()
    first = _batch(server, "c1", CountingSpec("a"), (1, 2))
    # An equal spec in a different object (as unpickled from a new request).
    second = _batch(server, "c2", CountingSpec("a"), (1, 3))
    assert len(BUILDS) == 1
    assert [m[0] for m in first] == ["seed", "seed", "done"]
    assert [m[0] for m in second] == ["seed", "seed", "done"]
    # Seed 1's record does not depend on what the harness ran before it.
    assert first[0][4] == second[0][4]
    # Probe counts are per batch (metric deltas), not per harness lifetime.
    assert first[-1][3] == second[-1][3] == 6


def test_two_specs_make_two_builds():
    server = _BatchServer()
    _batch(server, "c1", CountingSpec("a"), (1,))
    _batch(server, "c2", CountingSpec("b"), (1,))
    _batch(server, "c3", CountingSpec("a"), (2,))
    assert len(BUILDS) == 2


def test_raising_batch_drops_and_closes_its_harness():
    server = _BatchServer()
    spec = CountingSpec("a", raise_seed=5)
    _batch(server, "c1", spec, (1,))
    messages = _batch(server, "c2", spec, (2, 5))
    assert [m[0] for m in messages] == ["seed", "error"]
    assert "seed 5 raised" in messages[-1][3]
    assert BUILDS[0].closed
    assert len(server.harnesses) == 0
    _batch(server, "c3", spec, (3,))
    assert len(BUILDS) == 2
    assert not BUILDS[1].closed


def test_fifth_spec_evicts_and_closes_least_recently_used():
    assert _HARNESS_CACHE_SIZE == 4
    server = _BatchServer()
    for tag in "abcd":
        _batch(server, f"c-{tag}", CountingSpec(tag), (1,))
    _batch(server, "c-a2", CountingSpec("a"), (2,))  # "a" is most recent now
    _batch(server, "c-e", CountingSpec("e"), (1,))
    built = {harness.spec.tag: harness for harness in BUILDS}
    assert len(BUILDS) == 5
    assert built["b"].closed
    assert not any(built[tag].closed for tag in "acde")
    assert len(server.harnesses) == 4


def test_cache_close_closes_every_harness():
    cache = HarnessCache()
    for tag in "ab":
        cache.get(CountingSpec(tag))
    cache.close()
    assert len(cache) == 0
    assert all(harness.closed for harness in BUILDS)


def test_key_ignores_quarantine_budget_and_separates_spec_types():
    budgeted = dataclasses.replace(
        REAL_SPEC, robustness=RobustnessConfig(quarantine_after=3)
    )
    unbudgeted = dataclasses.replace(REAL_SPEC, robustness=RobustnessConfig())
    assert HarnessCache.key(budgeted) == HarnessCache.key(unbudgeted)
    assert HarnessCache.key(REAL_SPEC) != HarnessCache.key(unbudgeted)
    # Two doubles with the same fields are still different specs.
    assert HarnessCache.key(WellBehavedSpec()) != HarnessCache.key(FaultySeedSpec())


# -- the reference memo ---------------------------------------------------------


class _FlakyReferenceTarget:
    """Times out on its first probe, then answers like the real target."""

    def __init__(self) -> None:
        self.inner = make_target("SwiftShader")
        self.name = self.inner.name
        self.calls = 0

    def run(self, module, inputs) -> TargetOutcome:
        self.calls += 1
        if self.calls == 1:
            return TargetOutcome.timeout(0.5)
        return self.inner.run(module, inputs)


def test_faulted_reference_outcome_is_not_memoised():
    target = _FlakyReferenceTarget()
    program = reference_programs()[0]
    harness = Harness([target], [program])
    assert harness.reference_outcome(target, program).kind is OutcomeKind.TIMEOUT
    healthy = harness.reference_outcome(target, program)
    assert healthy.kind is not OutcomeKind.TIMEOUT
    assert harness.reference_outcome(target, program) is healthy
    assert target.calls == 2
    assert harness.metrics.counter("reference_probes") == 2


# -- the service --------------------------------------------------------------


def _service(root) -> CampaignService:
    return CampaignService(
        CampaignStore(root),
        ServiceConfig(workers=1, batch_size=2, poll_interval=0.02),
    )


def _run(service: CampaignService, manifests) -> dict[str, bytes]:
    service.start()
    try:
        for manifest in manifests:
            assert service.submit(manifest) is None
        service.run_until_idle(max_seconds=120)
        assert len(service._harnesses) == 1  # one spec, one finalize harness
        results = {}
        for manifest in manifests:
            assert service.store.state(manifest.campaign_id) == st.DONE
            results[manifest.campaign_id] = service.store.result_path(
                manifest.campaign_id
            ).read_bytes()
        return results
    finally:
        service.shutdown()


def test_shared_harness_results_match_fresh_service_runs(tmp_path):
    # The third campaign repeats seed 0, so it reduces the very finding the
    # first one reduced, on the harness that reduced it.
    manifests = [
        CampaignManifest(f"c{number}", REAL_SPEC, seeds, reduce=1)
        for number, seeds in enumerate([(0, 1), (4, 3), (0, 6)])
    ]
    shared_service = _service(tmp_path / "shared")
    shared = _run(shared_service, manifests)
    assert len(shared_service._harnesses) == 0  # closed by shutdown
    for manifest in manifests:
        alone = _run(_service(tmp_path / manifest.campaign_id), [manifest])
        assert shared[manifest.campaign_id] == alone[manifest.campaign_id]
        assert shared_service.store.read_result(manifest.campaign_id)["reductions"]


def test_finalize_reuses_one_harness_per_spec(tmp_path):
    service = _service(tmp_path / "store")
    service.start()
    try:
        for number in range(3):
            manifest = CampaignManifest(
                f"c{number}", CountingSpec("a"), (number,), reduce=1
            )
            assert service.submit(manifest) is None
        service.run_until_idle(max_seconds=60)
        assert len(service._harnesses) == 1
        # Only the parent's finalize builds in this process (the worker's
        # builds happen in the forked child).
        assert len(BUILDS) == 1
        assert not BUILDS[0].closed
    finally:
        service.shutdown()
    assert BUILDS[0].closed


def test_raising_finalize_leaves_nothing_cached(tmp_path):
    service = _service(tmp_path / "store")
    service.start()
    try:
        manifest = CampaignManifest("c0", RaisingFinalizeSpec(), (1, 2), reduce=1)
        assert service.submit(manifest) is None
        service.run_until_idle(max_seconds=60)
        assert service.store.state("c0") == st.FAILED
        assert len(service._harnesses) == 0
        assert len(BUILDS) == 1 and BUILDS[0].closed
    finally:
        service.shutdown()
