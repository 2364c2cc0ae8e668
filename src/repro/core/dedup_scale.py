"""Streaming deduplication at campaign scale: the one Figure 6 engine.

The paper's Figure 6 picker, read literally, is a greedy scan that
re-filters the whole corpus after every pick — O(n²) set-disjointness
comparisons over a fully materialized corpus.  That is fine for hundreds
of reduced tests and hopeless for the ~10^6 findings a service campaign
can produce.

:class:`StreamingDedup` maintains the *same* pick set online, one finding
at a time, and :func:`repro.core.dedup.deduplicate` is a batch call into
it.  It has two layers:

**Layer 1 — exact incremental picker.**  The batch algorithm is greedy
maximal-independent-set construction in priority order, where the
priority of a test is ``(len(types), test_id)`` and two tests conflict
when their type sets intersect.  Its outcome has an order-free
characterization: *a test is picked iff no picked test of strictly lower
priority shares a type with it.*  The streaming engine maintains exactly
that fixpoint under insertions:

* tests are *group-compressed* by their type-set signature
  (:func:`repro.core.dedup.type_signature_of`) — only a group's
  representative (its minimal ``test_id``) can ever be picked, every
  other member is a suppressed duplicate;
* an **owner map** ``type -> picked group`` answers "which pick blocks
  this candidate?" in O(|types|), because picks are pairwise disjoint so
  each type has at most one picked owner;
* an **inverted index** ``type -> groups containing it`` drives the
  *cascade*: when a new low-priority arrival evicts a picked group, the
  groups that pick may have been suppressing are re-evaluated through a
  priority heap.  Re-evaluations pop in strictly increasing priority, so
  a candidate found blocked can never be unblocked later in the same
  cascade (its blocker has lower priority than every remaining pop and
  evictions only ever remove *higher*-priority picks) — each group is
  settled once per cascade.

The final pick set is therefore independent of arrival order and equal
to the greedy scan's over the same multiset (the scan survives only as
the reference in the tests and the ``dedup_scale`` benchmark); the
*per-arrival decision log* is additionally deterministic under a pinned
arrival order, which is what the decision journal records.

**Layer 2 — streaming frontend.**  :func:`iter_stream_tests` yields
``ReducedTest`` records one at a time from campaign journals and trace
files without materializing the corpus, and :class:`DedupJournal` gives
the engine an fsync-per-decision log, a view over the repo's one
sealed-JSONL :class:`~repro.robustness.journal.Journal`: after
``SIGKILL`` at any instant, re-running the same stream with
``resume=True`` verifies the journaled prefix decision-by-decision (a
divergent stream raises) and appends exactly the records the killed run
never wrote — the caught-up journal is byte-identical to an
uninterrupted run's, and so is the pick set.
"""

from __future__ import annotations

import hashlib
import heapq
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.dedup import (
    DedupResult,
    ReducedTest,
    type_signature_of,
)
from repro.core.transformation import SUPPORTING_TYPES
from repro.observability import as_tracer
from repro.robustness.journal import Journal, read_jsonl

#: Version 2: every arrival resolves through the exact owner map, so a
#: suppress record's ``via``/``by``/``shared`` can differ from a version-1
#: journal's for the same stream.  A header of another version starts the
#: journal afresh (:meth:`~repro.robustness.journal.Journal.start`);
#: decisions are a pure function of the stream, so nothing is lost.
DEDUP_JOURNAL_VERSION = 2

_POOLS = ("stable", "nondeterministic")


# -- the decision journal ----------------------------------------------------


class DedupJournal(Journal):
    """Per-arrival dedup decisions, a header-bound
    :class:`~repro.robustness.journal.Journal`.

    Line 1 is a header binding the file to one input stream (``stream``
    key); every further line is one decision record in arrival order.  On
    resume only the longest valid prefix is kept — the header plus
    decisions whose ``i`` values are contiguous from 0; everything from the
    first torn, garbled or discontiguous line on is truncated in place and
    rewritten by the replay, so the caught-up journal is byte-identical to
    an uninterrupted run's wherever corruption struck.  A journal written
    for a different stream raises ``ValueError``.
    """

    def prepare(self, stream_key: str, *, resume: bool) -> list[dict]:
        """Open the journal; return the already-decided prefix in order
        (``[]`` for a fresh run, which starts a new header)."""
        header = {
            "v": DEDUP_JOURNAL_VERSION,
            "header": True,
            "kind": "dedup-stream",
            "stream": stream_key,
        }
        entries = self.start(
            header,
            bind="stream",
            resume=resume,
            mismatch=(
                "dedup journal was written for a different input stream — "
                "resume with the stream that produced it"
            ),
        )
        if not entries:
            return []
        decisions: list[dict] = []
        keep = entries[0][1]
        for record, end in entries[1:]:
            if (
                record is None
                or record.get("i") != len(decisions)
                or "action" not in record
            ):
                break
            decisions.append(record)
            keep = end
        if keep < entries[-1][1]:
            self.truncate(keep)
        return decisions


# -- layer 1: the exact incremental picker -----------------------------------


class _Group:
    """All tests sharing one type-set signature within one pool.  Only
    the representative (minimal ``test_id``) is ever pick-eligible.

    ``priority`` is materialized (not recomputed per comparison) and
    groups are keyed by their ``frozenset`` directly on the hot path —
    frozensets cache their hash, so the expensive blake2b signature is
    computed once per *distinct type set*, not once per finding."""

    __slots__ = ("sig", "types", "rep", "members", "picked", "priority")

    def __init__(self, sig: str, types: frozenset[str], rep: ReducedTest):
        self.sig = sig
        self.types = types
        self.rep = rep
        self.members = 1
        self.picked = False
        self.priority = (len(types), rep.test_id)


@dataclass
class DedupStats:
    """Counters for one streaming run.  ``evictions``/``repicks`` are
    arrival-order-dependent (live/trace visibility only); everything
    else is a function of the input multiset."""

    candidates: int = 0
    skipped_empty: int = 0
    duplicates: int = 0
    suppressed: int = 0
    comparisons: int = 0
    evictions: int = 0
    repicks: int = 0
    #: Always 0: every arrival resolves through the exact owner map.  Kept
    #: because the steady benchmark's per-layer ledger still reads it.
    sketch_suppressions: int = 0
    pool_candidates: dict = field(
        default_factory=lambda: dict.fromkeys(_POOLS, 0)
    )

    def to_json(self, engine: "StreamingDedup") -> dict:
        return {
            "candidates": self.candidates,
            "picks": engine.pick_count(),
            "suppressed": self.suppressed,
            "duplicates": self.duplicates,
            "skipped_empty": self.skipped_empty,
            "comparisons": self.comparisons,
            "evictions": self.evictions,
            "repicks": self.repicks,
            "groups": engine.group_count(),
            "pool_candidates": dict(self.pool_candidates),
            "pool_picks": {
                name: engine.pick_count(name) for name in _POOLS
            },
        }


class _Pool:
    """One independent dedup pool (stable / nondeterministic)."""

    def __init__(self, name: str, stats: DedupStats) -> None:
        self.name = name
        self.stats = stats
        #: Hot-path group lookup, keyed by the type set itself.
        self.groups: dict[frozenset[str], _Group] = {}
        #: Signature -> group, for the cascade heap.
        self.by_sig: dict[str, _Group] = {}
        self.owner: dict[str, _Group] = {}
        self.index: dict[str, list[_Group]] = {}

    # Every decision helper returns (action, detail) where detail is a
    # dict of order-deterministic extras for the journal/tracer.

    def ingest(self, test: ReducedTest, sig: str | None) -> tuple[str, dict]:
        self.stats.pool_candidates[self.name] += 1
        group = self.groups.get(test.types)
        if group is not None:
            return self._ingest_member(group, test)
        sig = type_signature_of(test.types) if sig is None else sig
        group = _Group(sig, test.types, test)
        self.groups[test.types] = group
        self.by_sig[sig] = group
        for type_name in test.types:
            self.index.setdefault(type_name, []).append(group)
        return self._evaluate_arrival(group)

    def _ingest_member(
        self, group: _Group, test: ReducedTest
    ) -> tuple[str, dict]:
        group.members += 1
        if test.test_id >= group.rep.test_id:
            self.stats.duplicates += 1
            self.stats.suppressed += 1
            return "duplicate", {"by": group.rep.test_id}
        # A lower test_id joins: the representative (and the group's
        # priority) changes.  A picked group stays picked — same types,
        # strictly lower priority cannot acquire new blockers.
        superseded = group.rep.test_id
        group.rep = test
        group.priority = (len(group.types), test.test_id)
        if group.picked:
            return "pick", {"supersedes": superseded}
        action, detail = self._evaluate_arrival(group)
        detail["supersedes"] = superseded
        return action, detail

    def _blocker(self, group: _Group) -> _Group | None:
        """The lowest-priority picked group that blocks *group*, via the
        owner map — O(|types|) exact lookups."""
        priority = group.priority
        best: _Group | None = None
        for type_name in group.types:
            owner = self.owner.get(type_name)
            self.stats.comparisons += 1
            if owner is not None and owner.priority < priority:
                if best is None or owner.priority < best.priority:
                    best = owner
        return best

    def _evaluate_arrival(self, group: _Group) -> tuple[str, dict]:
        blocker = self._blocker(group)
        if blocker is not None:
            self.stats.suppressed += 1
            return "suppress", {
                "by": blocker.rep.test_id,
                "via": "owner",
                "shared": sorted(group.types & blocker.types),
            }
        evicted, repicked = self._pick(group)
        detail: dict = {}
        if evicted:
            detail["evicted"] = evicted
        if repicked:
            detail["repicked"] = repicked
        return "pick", detail

    def _pick(self, group: _Group) -> tuple[list[str], list[str]]:
        """Pick *group* (no blocker exists), evicting every picked group
        it conflicts with and cascading re-evaluation in priority order.
        Returns (evicted rep ids, cascade-repicked rep ids), each in
        settlement order."""
        evicted_ids: list[str] = []
        repicked_ids: list[str] = []
        heap: list[tuple[tuple[int, str], str]] = []

        def install(g: _Group) -> None:
            losers: dict[str, _Group] = {}
            for type_name in g.types:
                current = self.owner.get(type_name)
                if current is not None and current is not g:
                    losers[current.sig] = current
            for loser in losers.values():
                self._evict(loser, heap)
                evicted_ids.append(loser.rep.test_id)
            for type_name in g.types:
                self.owner[type_name] = g
            g.picked = True

        install(group)
        while heap:
            _, sig = heapq.heappop(heap)
            candidate = self.by_sig[sig]
            if candidate.picked:
                continue
            if self._blocker(candidate) is not None:
                continue  # settled: no later eviction can unblock it
            install(candidate)
            repicked_ids.append(candidate.rep.test_id)
            self.stats.repicks += 1
        return evicted_ids, repicked_ids

    def _evict(self, loser: _Group, heap: list) -> None:
        loser.picked = False
        self.stats.evictions += 1
        for type_name in loser.types:
            if self.owner.get(type_name) is loser:
                del self.owner[type_name]
            # Everything the eviction may have been suppressing becomes
            # a re-evaluation candidate; the heap orders them by
            # priority so each settles exactly once.
            for candidate in self.index.get(type_name, ()):
                if not candidate.picked:
                    heapq.heappush(heap, (candidate.priority, candidate.sig))

    def _picked(self) -> list[_Group]:
        picked = [g for g in self.groups.values() if g.picked]
        picked.sort(key=lambda g: g.priority)
        return picked

    def picks(self) -> list[ReducedTest]:
        return [g.rep for g in self._picked()]

    def pick_suppressions(self) -> list[tuple[ReducedTest, int]]:
        """Each pick, in :meth:`picks` order, with the number of tests it
        suppresses — the greedy scan's discard count at that pick.  The
        scan discards a test at the first pick overlapping it, i.e. at its
        lowest-priority overlapping pick: that is the owner map's minimal
        owner for a non-picked group, and the pick itself for its own
        group's duplicates."""
        suppressed = {
            g.sig: g.members - 1 for g in self.groups.values() if g.picked
        }
        for group in self.groups.values():
            if not group.picked:
                blocker = min(
                    (self.owner[t] for t in group.types if t in self.owner),
                    key=lambda g: g.priority,
                )
                suppressed[blocker.sig] += group.members
        return [(g.rep, suppressed[g.sig]) for g in self._picked()]

    def pick_count(self) -> int:
        return sum(1 for g in self.groups.values() if g.picked)


# -- layer 2: the streaming engine -------------------------------------------


class StreamingDedup:
    """Incremental Figure 6 picker; see the module docstring.

    ``journal`` (a path or :class:`DedupJournal`) turns on the durable
    decision log; with ``resume=True`` the engine verifies each incoming
    decision against the journaled prefix (raising ``ValueError`` on a
    divergent stream) and appends only past it.
    """

    def __init__(
        self,
        *,
        tracer: object | None = None,
        journal: DedupJournal | Path | str | None = None,
        resume: bool = False,
        stream_key: str = "",
    ) -> None:
        self.tracer = as_tracer(tracer)
        self.stats = DedupStats()
        self._pools = {
            False: _Pool("stable", self.stats),
            True: _Pool("nondeterministic", self.stats),
        }
        if journal is not None and not isinstance(journal, DedupJournal):
            journal = DedupJournal(journal)
        self.journal: DedupJournal | None = journal
        self._prefix: list[dict] = (
            journal.prepare(stream_key, resume=resume) if journal is not None else []
        )
        self._arrivals = 0

    # -- ingest --------------------------------------------------------------

    def ingest(self, test: ReducedTest) -> str:
        """Feed one finding; returns the decision action (``pick`` /
        ``suppress`` / ``duplicate`` / ``skip``)."""
        index = self._arrivals
        self._arrivals += 1
        self.stats.candidates += 1
        # The per-arrival digest only matters when a decision record is
        # being produced; the pure in-memory hot path dedups on the
        # (hash-cached) frozenset itself and digests once per group.
        observed = self.journal is not None or self.tracer.enabled
        sig = test.type_signature if observed else None
        pool = self._pools[test.nondeterministic]
        if not test.types:
            self.stats.skipped_empty += 1
            action, detail = "skip", {}
        else:
            action, detail = pool.ingest(test, sig)
        if self.journal is not None:
            record = {
                "v": DEDUP_JOURNAL_VERSION,
                "i": index,
                "test": test.test_id,
                "sig": sig,
                "pool": pool.name,
                "action": action,
                **detail,
            }
            if index < len(self._prefix):
                if self._prefix[index] != record:
                    raise ValueError(
                        "dedup journal diverges from the input stream at "
                        f"arrival {index} (journaled "
                        f"{self._prefix[index].get('test')!r}, stream "
                        f"{test.test_id!r}) — resume with the stream that "
                        "wrote it"
                    )
            else:
                self.journal.append(record)
        if self.tracer.enabled and action != "skip":
            if action == "pick":
                self.tracer.emit(
                    "dedup.pick",
                    pool=pool.name,
                    test_id=test.test_id,
                    sig=sig,
                    types=sorted(test.types),
                    streamed=True,
                    **{
                        key: detail[key]
                        for key in ("evicted", "repicked", "supersedes")
                        if key in detail
                    },
                )
            else:
                self.tracer.emit(
                    "dedup.suppress",
                    pool=pool.name,
                    test_id=test.test_id,
                    by=detail.get("by"),
                    via=detail.get("via", "duplicate"),
                    shared=detail.get("shared", []),
                )
        return action

    def ingest_many(self, tests: Iterable[ReducedTest]) -> None:
        for test in tests:
            self.ingest(test)

    # -- results -------------------------------------------------------------

    def result(self) -> DedupResult:
        """The current pick set: stable picks first, each pool ordered by
        ``(len(types), id)`` — the greedy scan's pick order."""
        result = DedupResult()
        for nondet in (False, True):
            result.to_investigate.extend(self._pools[nondet].picks())
        result.skipped_empty = self.stats.skipped_empty
        return result

    def pick_suppressions(self) -> Iterator[tuple[str, ReducedTest, int]]:
        """``(pool, pick, suppressed)`` in :meth:`result` order; see
        :meth:`_Pool.pick_suppressions`."""
        for nondet in (False, True):
            pool = self._pools[nondet]
            for test, suppressed in pool.pick_suppressions():
                yield pool.name, test, suppressed

    def pick_count(self, pool: str | None = None) -> int:
        if pool is not None:
            return next(
                p.pick_count()
                for p in self._pools.values()
                if p.name == pool
            )
        return sum(p.pick_count() for p in self._pools.values())

    def group_count(self) -> int:
        return sum(len(p.groups) for p in self._pools.values())

    def stats_json(self) -> dict:
        return self.stats.to_json(self)

    def emit_summary(self) -> dict:
        """Emit the ``dedup.stream`` summary event and return its payload
        (also the shape served by the service's ``/dedup`` endpoint)."""
        payload = self.stats_json()
        self.tracer.emit("dedup.stream", **payload)
        return payload


# -- streaming inputs --------------------------------------------------------


def reduced_tests_from_record(
    record: dict, *, ignore: frozenset[str] = SUPPORTING_TYPES
) -> list[ReducedTest]:
    """The findings of one campaign-journal seed record as
    :class:`ReducedTest` candidates, without rebuilding transformation
    objects — journal entries carry ``{"type": name, ...}`` dicts.

    Ids are ``<seed>:<target>:<k>`` with ``k`` counting findings per
    (seed, target), so they are stable across resumes and identical for
    journal- and trace-fed streams of the same campaign.  Types here are
    the *unreduced* transformation sets — the live-triage view; the
    service re-runs dedup over post-reduction sets during finalization.
    """
    tests: list[ReducedTest] = []
    counters: dict[str, int] = {}
    seed = record.get("seed")
    for entry in record.get("findings", ()):
        target = entry.get("target", "?")
        k = counters.get(target, 0)
        counters[target] = k + 1
        types = frozenset(
            t.get("type")
            for t in entry.get("transformations", ())
            if isinstance(t, dict) and isinstance(t.get("type"), str)
        )
        tests.append(
            ReducedTest(
                test_id=f"{seed}:{target}:{k}",
                types=frozenset(types - ignore),
                ground_truth_bug=entry.get("ground_truth_bug"),
                nondeterministic=bool(entry.get("nondeterministic", False)),
            )
        )
    return tests


def iter_stream_tests(
    path: Path | str, *, ignore: frozenset[str] = SUPPORTING_TYPES
) -> Iterator[ReducedTest]:
    """Findings from a campaign journal (PR 2) or trace file (PR 3), one
    :class:`ReducedTest` at a time in file (arrival) order.

    The format is auto-detected per line: trace events carry ``ev``
    (only ``finding`` events with a ``types`` list are candidates —
    traces written before types were recorded yield nothing); journal
    seed records carry ``seed``/``findings`` and are checksum-verified
    (:func:`~repro.robustness.journal.read_jsonl`).  Corrupt or foreign
    lines are skipped — a torn tail must not abort triage.
    """
    counters: dict[tuple, int] = {}
    for record in read_jsonl(path):
        if "ev" in record:
            if record.get("ev") != "finding":
                continue
            types = record.get("types")
            if not isinstance(types, list):
                continue  # pre-PR-10 trace: findings carry no types
            seed = record.get("seed")
            target = record.get("target", "?")
            key = (seed, target)
            k = counters.get(key, 0)
            counters[key] = k + 1
            yield ReducedTest(
                test_id=f"{seed}:{target}:{k}",
                types=frozenset(t for t in types if isinstance(t, str))
                - ignore,
                nondeterministic=bool(record.get("nondeterministic", False)),
            )
        elif "seed" in record and "findings" in record:
            yield from reduced_tests_from_record(record, ignore=ignore)


def stream_key_for(paths: Sequence[Path | str]) -> str:
    """A stable identity for an input-path sequence, used to bind a
    decision journal to its stream."""
    digest = hashlib.blake2b(digest_size=12)
    for path in paths:
        digest.update(os.fspath(path).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def stream_dedup(
    paths: Sequence[Path | str],
    *,
    tracer: object | None = None,
    journal: DedupJournal | Path | str | None = None,
    resume: bool = False,
    ignore: frozenset[str] = SUPPORTING_TYPES,
    ingest_delay: float = 0.0,
) -> StreamingDedup:
    """Run the streaming picker over journal/trace files in order.

    ``ingest_delay`` sleeps between arrivals — a testing aid so the
    SIGKILL-mid-dedup tests can interrupt a run deterministically."""
    engine = StreamingDedup(
        tracer=tracer,
        journal=journal,
        resume=resume,
        stream_key=stream_key_for(paths),
    )
    for path in paths:
        for test in iter_stream_tests(path, ignore=ignore):
            engine.ingest(test)
            if ingest_delay > 0.0:
                import time

                time.sleep(ingest_delay)
    return engine
