"""Speculative parallel reduction: byte-identical to serial at every K.

The ISSUE's property test lives here: for K in {1, 2, 4} workers the
parallel reducer must return the *identical* transformation subsequence,
``tests_run``, ``chunks_removed`` and accepted-chunk history as the serial
reducer, across oracle shapes (subset, order-sensitive, seeded-irregular).
The oracles are module-level frozen dataclasses so they ship to worker
processes under both ``fork`` and pickling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pytest

from repro.compilers import make_target
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.core.reducer import reduce_transformations
from repro.core.transformation import sequence_to_json
from repro.perf import WorkerProbeError
from repro.perf.parallel_reduce import parallel_reduce
from repro.reduce import ReductionConfig

ITEMS = list(range(40))


@dataclass(frozen=True)
class SubsetOracle:
    """Interesting iff every needle survives — the classic ddmin oracle."""

    needles: frozenset

    def __call__(self, candidate) -> bool:
        return self.needles <= set(candidate)


@dataclass(frozen=True)
class AdjacentPairOracle:
    """Order- and context-sensitive: each (a, b) pair must survive with b
    immediately after a, so verdicts depend on more than membership."""

    pairs: tuple

    def __call__(self, candidate) -> bool:
        items = list(candidate)
        for a, b in self.pairs:
            if a not in items:
                return False
            where = items.index(a)
            if where + 1 >= len(items) or items[where + 1] != b:
                return False
        return True


@dataclass(frozen=True)
class HashedOracle:
    """Deterministic but irregular verdicts (seeded by *salt*): exercises
    acceptance/rejection interleavings hand-written oracles never produce."""

    needles: frozenset
    salt: int
    total: int

    def __call__(self, candidate) -> bool:
        items = tuple(candidate)
        if not self.needles <= set(items):
            return False
        if len(items) == self.total:
            return True  # the full input must stay interesting
        digest = hashlib.md5(repr((self.salt, items)).encode()).digest()
        return digest[0] % 3 != 0


@dataclass(frozen=True)
class ExplodingOracle:
    """Raises once candidates shrink past a threshold — for error plumbing."""

    needles: frozenset
    explode_below: int

    def __call__(self, candidate) -> bool:
        if len(candidate) < self.explode_below:
            raise RuntimeError("oracle exploded")
        return self.needles <= set(candidate)


def oracles():
    yield pytest.param(SubsetOracle(frozenset({3, 17, 38})), id="subset")
    yield pytest.param(
        AdjacentPairOracle(((10, 11), (30, 31))), id="adjacent-pairs"
    )
    for salt in (1, 2, 5):
        yield pytest.param(
            HashedOracle(frozenset({5, 21}), salt, len(ITEMS)),
            id=f"seeded-{salt}",
        )


class TestByteIdentity:
    """parallel(K) == serial for K in {1, 2, 4}, field for field."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("oracle", list(oracles()))
    def test_matches_serial(self, oracle, workers):
        serial = reduce_transformations(ITEMS, oracle)
        result = parallel_reduce(ITEMS, oracle, workers=workers)
        assert result.transformations == serial.transformations
        assert result.tests_run == serial.tests_run
        assert result.chunks_removed == serial.chunks_removed
        # The accepted-chunk history must match step for step, not merely
        # the endpoint: every commit happened in the exact serial order.
        assert result.history == serial.history
        assert result.to_json() == serial.to_json()

    @pytest.mark.parametrize("window", [1, 2, 16])
    def test_window_size_never_changes_the_result(self, window):
        oracle = SubsetOracle(frozenset({3, 17, 38}))
        serial = reduce_transformations(ITEMS, oracle)
        result = parallel_reduce(ITEMS, oracle, workers=2, window=window)
        assert result.to_json() == serial.to_json()
        assert result.history == serial.history

    def test_tiny_sequences(self):
        oracle = SubsetOracle(frozenset({0}))
        for items in ([0], [0, 1], [0, 1, 2]):
            serial = reduce_transformations(items, oracle)
            result = parallel_reduce(items, oracle, workers=2)
            assert result.to_json() == serial.to_json()

    def test_non_interesting_input_raises_at_every_worker_count(self):
        oracle = SubsetOracle(frozenset({99}))
        for workers in (1, 2):
            with pytest.raises(ValueError):
                parallel_reduce(ITEMS, oracle, workers=workers)

    def test_worker_oracle_errors_surface(self):
        oracle = ExplodingOracle(frozenset({3}), explode_below=30)
        with pytest.raises((WorkerProbeError, RuntimeError)):
            parallel_reduce(ITEMS, oracle, workers=2)


class TestSpeculationAccounting:
    def test_single_worker_runs_inline(self):
        result = parallel_reduce(ITEMS, SubsetOracle(frozenset({3})), workers=1)
        stats = result.speculation
        assert stats is not None
        assert stats.mode == "inline"
        assert stats.wasted == 0  # window of 1 never speculates

    def test_pool_mode_counters_are_sane(self):
        oracle = SubsetOracle(frozenset({3, 17, 38}))
        result = parallel_reduce(ITEMS, oracle, workers=2)
        stats = result.speculation
        assert stats is not None
        assert stats.mode == "pool"
        assert stats.workers == 2
        assert stats.dispatched > 0
        assert 0 <= stats.wasted <= stats.dispatched
        assert 0.0 <= stats.wasted_percent <= 100.0
        payload = stats.to_json()
        assert payload["mode"] == "pool"
        assert payload["wasted"] == stats.wasted


def _harness(references, donors):
    return Harness(
        [make_target("SwiftShader")],
        references,
        donors,
        FuzzerOptions(max_transformations=40),
    )


class TestHarnessParallelReduction:
    """reduce_finding and reduce_all at ``workers=K`` on real findings."""

    @pytest.fixture(scope="class")
    def findings(self, references, donors):
        campaign = _harness(references, donors).run_campaign(range(10))
        assert campaign.findings, "workload produced no findings to reduce"
        return campaign.findings

    def test_reduce_finding_parallel_matches_serial(
        self, references, donors, findings
    ):
        harness = _harness(references, donors)
        serial = harness.reduce_finding(findings[0])
        parallel = harness.reduce_finding(findings[0], ReductionConfig(workers=2))
        assert parallel.to_json() == serial.to_json()
        assert sequence_to_json(parallel.transformations) == sequence_to_json(
            serial.transformations
        )
        assert parallel.history == serial.history

    def test_reduce_all_matches_serial_loop(self, references, donors, findings):
        subset = findings[:3]
        harness = _harness(references, donors)
        serial = [harness.reduce_finding(f) for f in subset]
        fleet = harness.reduce_all(subset, ReductionConfig(workers=2))
        assert len(fleet) == len(serial)
        for one, other in zip(fleet, serial):
            assert one.to_json() == other.to_json()
            assert sequence_to_json(one.transformations) == sequence_to_json(
                other.transformations
            )

    def test_fault_path_pooled_matches_serial(
        self, references, donors, findings, tmp_path
    ):
        # Fault-tolerant decisions probed over the pool still commit (and
        # journal) in serial order.
        harness = _harness(references, donors)
        serial = harness.reduce_finding(findings[0], journal=tmp_path / "serial.jsonl")
        pooled = harness.reduce_finding(
            findings[0],
            ReductionConfig(workers=2),
            journal=tmp_path / "pooled.jsonl",
        )
        assert pooled.speculation.mode == "pool"
        assert pooled.to_json() == serial.to_json()
        assert pooled.history == serial.history
        assert (tmp_path / "pooled.jsonl").read_bytes() == (
            tmp_path / "serial.jsonl"
        ).read_bytes()

    def test_reduce_all_serial_path_is_the_fallback(
        self, references, donors, findings
    ):
        harness = _harness(references, donors)
        serial = [harness.reduce_finding(f) for f in findings[:1]]
        fleet = harness.reduce_all(findings[:1], ReductionConfig(workers=1))
        assert [r.to_json() for r in fleet] == [r.to_json() for r in serial]
