"""Replay-prefix caching for the reducer's interestingness tests.

Delta debugging (§3.4) removes chunks *from the end backwards*: every
candidate has the shape ``current[:start] + current[end:]``, so successive
probes share long prefixes with the accepted sequence — prefixes the plain
:func:`repro.core.reducer.replay` recomputes from the original module on
every call.  :class:`CachedReplayer` snapshots :class:`~repro.core.context.
Context` state at fixed chunk boundaries while replaying, and seeds later
replays from the longest snapshot whose prefix matches the new candidate,
so only the divergent suffix is re-applied.

Verdicts are memoized one level up, by the reduction's
:class:`~repro.robustness.reduction.FlakeHardenedOracle`: a repeated
candidate (common when the chunk size halves and earlier splits are
retried) is answered from its memo at no replay.  The oracle counts its
commits into this replayer's :class:`ReplayStats`.

Soundness: replaying a prefix and then a suffix is, by Definition 2.5,
exactly replaying the concatenation — transformation application is
deterministic in the context, and :meth:`Context.clone` copies ``(P, I, F)``
faithfully.  Cached results are therefore byte-identical to uncached ones;
the property tests in ``tests/perf`` assert this.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.core.context import Context
from repro.core.transformation import Transformation, apply_sequence
from repro.ir.module import Module


@dataclass
class ReplayStats:
    """Counters for one reduction run (all saving claims are derived from
    these, so benchmarks report measured — not estimated — work)."""

    requests: int = 0  #: decisions committed by the reduction's oracles
    memo_hits: int = 0  #: commits answered from an oracle's memo (no replay)
    replays: int = 0  #: replays actually performed
    #: probes the probe cache answered by the digest of an earlier replay
    #: of the same candidate, with no replay
    digest_answers: int = 0
    scratch_replays: int = 0  #: replays with no usable snapshot (full price)
    prefix_hits: int = 0  #: replays seeded from a cached prefix snapshot
    transformations_applied: int = 0  #: transformations actually (re)applied
    transformations_saved: int = 0  #: applications skipped thanks to snapshots

    def to_json(self) -> dict:
        return {
            "requests": self.requests,
            "memo_hits": self.memo_hits,
            "replays": self.replays,
            "digest_answers": self.digest_answers,
            "scratch_replays": self.scratch_replays,
            "prefix_hits": self.prefix_hits,
            "transformations_applied": self.transformations_applied,
            "transformations_saved": self.transformations_saved,
        }

    def merge_json(self, delta: dict) -> None:
        """Fold a worker's drained ``to_json`` delta into this registry (the
        parallel reducer's shard-merge path for replay counters)."""
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + value)


class CachedReplayer:
    """Prefix-cached replacement for :func:`repro.core.reducer.replay`,
    bound to one ``(original, inputs)`` pair (i.e. one finding)."""

    def __init__(
        self,
        original: Module,
        inputs: dict | None = None,
        *,
        snapshot_interval: int = 4,
        max_snapshots: int = 64,
    ) -> None:
        self._original = original
        self._inputs = dict(inputs or {})
        self._interval = max(1, snapshot_interval)
        self._max_snapshots = max(1, max_snapshots)
        #: prefix fingerprint -> context snapshot after applying that prefix,
        #: in LRU order (oldest first).
        self._snapshots: OrderedDict[tuple[int, ...], Context] = OrderedDict()
        #: prefix length -> number of stored snapshots of that length.  Lets
        #: ``_best_snapshot`` probe only the lengths that exist (longest
        #: first, one O(1) dict lookup each) instead of scanning every
        #: snapshot with tuple-prefix compares.
        self._lengths: dict[int, int] = {}
        #: Interned transformations: keeps every fingerprinted object alive so
        #: ``id()`` values can never be recycled within this replayer's life.
        self._interned: dict[int, Transformation] = {}
        self.stats = ReplayStats()

    # -- fingerprints ------------------------------------------------------------

    def fingerprint(self, candidate: Sequence[Transformation]) -> tuple[int, ...]:
        """A cheap identity fingerprint of a candidate subsequence.

        The reducer only ever re-slices the transformation objects of the
        sequence under reduction, so object identity is a sound key; interning
        pins each object so its id stays unique for this replayer's lifetime.
        """
        keys = []
        for transformation in candidate:
            key = id(transformation)
            self._interned[key] = transformation
            keys.append(key)
        return tuple(keys)

    # -- replay ------------------------------------------------------------------

    def replay(self, candidate: Sequence[Transformation]) -> Context:
        """Replay *candidate* from the original module, reusing the longest
        cached prefix snapshot and recording new snapshots on the way."""
        keys = self.fingerprint(candidate)
        prefix_len, snapshot = self._best_snapshot(keys)
        if snapshot is None:
            ctx = Context.start(self._original, self._inputs)
            self.stats.scratch_replays += 1
        else:
            ctx = snapshot.clone()
            self.stats.prefix_hits += 1
            self.stats.transformations_saved += prefix_len
        self.stats.replays += 1

        position = prefix_len
        total = len(candidate)
        while position < total:
            boundary = min(total, (position // self._interval + 1) * self._interval)
            apply_sequence(ctx, candidate[position:boundary])
            self.stats.transformations_applied += boundary - position
            position = boundary
            # Snapshot interior chunk boundaries only: the full candidate is
            # rarely a prefix of a later one, but its boundaries are.
            if position < total and position % self._interval == 0:
                self._store(keys[:position], ctx)
        return ctx

    def _best_snapshot(self, keys: tuple[int, ...]) -> tuple[int, Context | None]:
        # At most one stored snapshot can match a given prefix length (the
        # key *is* the prefix), so the longest usable snapshot is found by
        # walking the distinct stored lengths longest-first and doing one
        # exact dict lookup per length — identical hit behaviour to a full
        # scan, without touching every snapshot.
        for length in sorted(self._lengths, reverse=True):
            if length > len(keys):
                continue
            prefix = keys[:length]
            snapshot = self._snapshots.get(prefix)
            if snapshot is not None:
                self._snapshots.move_to_end(prefix)
                return length, snapshot
        return 0, None

    def _store(self, keys: tuple[int, ...], ctx: Context) -> None:
        if keys in self._snapshots:
            self._snapshots.move_to_end(keys)
            return
        # Stored as a clone so the context handed back to the caller (and
        # mutated by the remaining suffix) never aliases the cache.
        self._snapshots[keys] = ctx.clone()
        self._lengths[len(keys)] = self._lengths.get(len(keys), 0) + 1
        while len(self._snapshots) > self._max_snapshots:
            evicted, _ = self._snapshots.popitem(last=False)
            count = self._lengths[len(evicted)] - 1
            if count:
                self._lengths[len(evicted)] = count
            else:
                del self._lengths[len(evicted)]
