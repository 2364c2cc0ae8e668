"""Replay-prefix caching: byte-identical results, strictly less work."""

from __future__ import annotations

import pytest

from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.reducer import reduce_transformations, replay
from repro.core.transformation import sequence_to_json
from repro.perf import CachedReplayer


def _fuzzed_sequence(program, seed, max_transformations=60):
    fuzzer = Fuzzer([], FuzzerOptions(max_transformations=max_transformations))
    return fuzzer.run(program.module, program.inputs, seed).transformations


def _size_threshold(program, transformations):
    """An interestingness threshold met by the full sequence but not by the
    empty one: 'the variant grew by at least half the full growth'."""
    full = replay(program.module, program.inputs, transformations)
    grown = full.module.instruction_count() - program.module.instruction_count()
    if grown <= 0:
        return None
    return program.module.instruction_count() + (grown + 1) // 2


class TestCachedReplayMatchesPlainReplay:
    def test_replay_is_byte_identical_at_every_prefix(self, references):
        program = references[0]
        transformations = _fuzzed_sequence(program, seed=7)
        assert transformations, "fuzzer produced no transformations"
        replayer = CachedReplayer(program.module, program.inputs, snapshot_interval=4)
        # Probe shrinking prefixes (the §3.4 access pattern, back to front).
        for cut in range(len(transformations), -1, -1):
            candidate = transformations[:cut]
            plain = replay(program.module, program.inputs, candidate)
            cached = replayer.replay(candidate)
            assert plain.module.fingerprint() == cached.module.fingerprint()
            assert plain.inputs == cached.inputs
        assert replayer.stats.prefix_hits > 0
        assert replayer.stats.transformations_saved > 0

    def test_snapshot_reuse_never_aliases_cached_state(self, references):
        program = references[1]
        transformations = _fuzzed_sequence(program, seed=3)
        replayer = CachedReplayer(program.module, program.inputs, snapshot_interval=2)
        first = replayer.replay(transformations)
        # Mutating the returned context must not corrupt later replays.
        first.module.functions.clear()
        second = replayer.replay(transformations)
        plain = replay(program.module, program.inputs, transformations)
        assert second.module.fingerprint() == plain.module.fingerprint()


class TestPropertyReductionEquivalence:
    """The ISSUE's property test: across randomized sequences, the cached
    reducer returns the identical 1-minimal subsequence with a ``tests_run``
    count no greater than the uncached run."""

    @pytest.mark.parametrize("seed", range(8))
    def test_cached_reduction_identical_and_no_more_tests(self, references, seed):
        program = references[seed % len(references)]
        transformations = _fuzzed_sequence(program, seed)
        threshold = _size_threshold(program, transformations)
        if threshold is None:
            pytest.skip("sequence did not grow the module")

        def plain_test(candidate):
            ctx = replay(program.module, program.inputs, candidate)
            return ctx.module.instruction_count() >= threshold

        replayer = CachedReplayer(program.module, program.inputs)

        def cached_test(candidate):
            return replayer.replay(candidate).module.instruction_count() >= threshold

        uncached = reduce_transformations(transformations, plain_test)
        cached = reduce_transformations(transformations, cached_test)

        assert sequence_to_json(cached.transformations) == sequence_to_json(
            uncached.transformations
        )
        assert cached.tests_run <= uncached.tests_run
        assert cached.chunks_removed == uncached.chunks_removed
        # One replay per test, most of them seeded from a prefix snapshot.
        stats = replayer.stats
        assert stats.replays == cached.tests_run
        assert stats.scratch_replays <= stats.replays


class TestReducerSkipsEmptyCandidates:
    def test_empty_candidate_never_tested_nor_counted(self):
        calls = []

        def is_interesting(candidate):
            calls.append(list(candidate))
            return bool(candidate)

        result = reduce_transformations(["a", "b"], is_interesting)
        assert [] not in calls
        assert result.transformations == ["a"]
        # verify_input + every non-empty candidate, nothing for empties.
        assert result.tests_run == len(calls)

    def test_single_element_sequence_skips_empty_probe(self):
        calls = []

        def is_interesting(candidate):
            calls.append(list(candidate))
            return bool(candidate)

        result = reduce_transformations(["only"], is_interesting)
        assert [] not in calls
        assert result.transformations == ["only"]


class _LinearScanReplayer(CachedReplayer):
    """Reference implementation of snapshot lookup: the pre-index linear
    scan over every stored snapshot.  The length-indexed fast path must
    match it hit for hit (same snapshot chosen, same LRU touch)."""

    def _best_snapshot(self, keys):
        best_len, best_key = 0, None
        for prefix in self._snapshots:
            n = len(prefix)
            if n <= len(keys) and n > best_len and keys[:n] == prefix:
                best_len, best_key = n, prefix
        if best_key is None:
            return 0, None
        self._snapshots.move_to_end(best_key)
        return best_len, self._snapshots[best_key]


class TestSnapshotIndexMatchesLinearScan:
    """Satellite regression test: replacing the O(max_snapshots) scan with
    the length index must not change which snapshot any probe hits."""

    def test_identical_hit_behaviour_across_a_probe_stream(self, references):
        import random

        program = references[0]
        transformations = _fuzzed_sequence(program, seed=11)
        assert len(transformations) >= 12
        kwargs = dict(snapshot_interval=3, max_snapshots=8)
        fast = CachedReplayer(program.module, program.inputs, **kwargs)
        slow = _LinearScanReplayer(program.module, program.inputs, **kwargs)

        rng = random.Random(0)
        probes = [transformations[:cut] for cut in range(len(transformations), -1, -1)]
        for _ in range(30):  # ddmin-shaped gap slices, enough to force evictions
            i = rng.randrange(0, len(transformations))
            j = rng.randrange(i, len(transformations))
            probes.append(transformations[:i] + transformations[j:])

        for candidate in probes:
            a = fast.replay(candidate)
            b = slow.replay(candidate)
            assert a.module.fingerprint() == b.module.fingerprint()
        assert fast.stats.to_json() == slow.stats.to_json()
        assert fast.stats.prefix_hits > 0
