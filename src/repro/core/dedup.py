"""Test-case deduplication (Figure 6, refined per §3.5).

Given a set of *reduced* test cases, pick a subset to investigate such that
no two chosen tests share a transformation type.  Types on the fixed ignore
list (:data:`repro.core.transformation.SUPPORTING_TYPES`) are disregarded
entirely; tests whose effective type set is empty are never selected (they
carry no signal) and never block others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from repro.core.transformation import SUPPORTING_TYPES, Transformation
from repro.observability import as_tracer


def type_signature_of(types: Iterable[str]) -> str:
    """A stable blake2b digest over the *sorted* type names.

    Equal type sets always produce equal signatures (sorting removes
    set-iteration order; a NUL separator removes concatenation
    ambiguity), so the digest is usable as a dedup-journal key and as
    a group key in :mod:`repro.core.dedup_scale`.
    """
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(types):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True)
class ReducedTest:
    """One reduced test case: an identifier plus its transformation types.

    ``ground_truth_bug`` is optional evaluation-only metadata (the injected
    bug id or crash signature the test is known to trigger); the algorithm
    itself never reads it.
    """

    test_id: str
    types: frozenset[str]
    ground_truth_bug: str | None = None
    #: Tests whose verdict was flaky across reruns (see
    #: :mod:`repro.robustness.retry`), plus tests whose *reduction* was
    #: degraded or observed oracle disagreements (see
    #: :mod:`repro.robustness.reduction` and :meth:`from_reduction`).
    #: Deduplicated separately: a flaky test must neither suppress a stable
    #: one nor be suppressed by it — their "shared type" evidence is
    #: unreliable, and a degraded (non-1-minimal) reduction carries leftover
    #: transformation types that would suppress unrelated stable tests.
    nondeterministic: bool = False

    @cached_property
    def type_signature(self) -> str:
        """Cached :func:`type_signature_of` over this test's types.
        (``cached_property`` writes the instance ``__dict__`` directly,
        which frozen dataclasses permit; equality and hashing still
        compare fields only.)"""
        return type_signature_of(self.types)

    @classmethod
    def from_transformations(
        cls,
        test_id: str,
        transformations: Sequence[Transformation],
        ground_truth_bug: str | None = None,
        *,
        ignore: frozenset[str] = SUPPORTING_TYPES,
        nondeterministic: bool = False,
    ) -> "ReducedTest":
        types = frozenset(
            t.type_name for t in transformations if t.type_name not in ignore
        )
        return cls(test_id, types, ground_truth_bug, nondeterministic)

    @classmethod
    def from_reduction(
        cls,
        test_id: str,
        finding: "object",
        reduction: "object",
        *,
        ignore: frozenset[str] = SUPPORTING_TYPES,
    ) -> "ReducedTest":
        """Build a :class:`ReducedTest` from a finding and its
        :class:`~repro.core.reducer.ReductionResult`, folding reduction
        quality into the ``nondeterministic`` flag.

        A test lands in the unreliable pool when *any* of: the finding's
        verdict was flaky across reruns; the reduction ``degraded`` (its
        surviving types are not 1-minimal, so they over-claim); or the
        flake-hardened oracle recorded verdict ``disagreements`` during the
        reduction (the types that survived depended on which probe you
        believe).
        """
        stability = reduction.stability or {}
        unreliable = bool(
            getattr(finding, "nondeterministic", False)
            or reduction.degraded is not None
            or stability.get("disagreements", 0)
        )
        return cls.from_transformations(
            test_id,
            reduction.transformations,
            getattr(finding, "ground_truth_bug", None),
            ignore=ignore,
            nondeterministic=unreliable,
        )


@dataclass
class DedupResult:
    """Outcome of one deduplication run."""

    to_investigate: list[ReducedTest] = field(default_factory=list)
    skipped_empty: int = 0

    @property
    def report_count(self) -> int:
        return len(self.to_investigate)


def deduplicate(
    tests: Sequence[ReducedTest], *, tracer: "object | None" = None
) -> DedupResult:
    """The Figure 6 algorithm.

    While tests remain, pick a test with the smallest (nonzero) number of
    transformation types, add it to the investigation set, and discard every
    test sharing a type with it.  Ties are broken by test id for determinism.

    Stable and ``nondeterministic`` tests are deduplicated as separate
    pools: a flaky verdict is weak evidence, so it must not suppress (or be
    suppressed by) a stable test that happens to share a transformation
    type.  Degraded or disagreement-tainted *reductions* (see
    :meth:`ReducedTest.from_reduction`) are partitioned the same way — their
    surviving transformation types are either over-approximate (not
    1-minimal) or oracle-dependent.  Stable picks come first in the
    investigation list.

    The picks come from :class:`~repro.core.dedup_scale.StreamingDedup`,
    the one Figure 6 engine, fed the whole batch.

    ``tracer`` (a :class:`~repro.observability.Tracer`, path, or ``None``)
    emits one ``dedup.pick`` event per selected test — which test was
    chosen and how many it suppressed — plus ``dedup.begin``/``dedup.end``
    bracketing the run; the selection itself is unaffected.
    """
    # Imported here: dedup_scale builds on this module's types.
    from repro.core.dedup_scale import StreamingDedup

    tracer = as_tracer(tracer)
    tracer.emit("dedup.begin", tests=len(tests))
    engine = StreamingDedup()
    engine.ingest_many(tests)
    result = engine.result()
    if tracer.enabled:
        for pool, chosen, suppressed in engine.pick_suppressions():
            tracer.emit(
                "dedup.pick",
                pool=pool,
                test_id=chosen.test_id,
                types=sorted(chosen.types),
                suppressed=suppressed,
            )
    tracer.emit(
        "dedup.end",
        tests=len(tests),
        reports=result.report_count,
        skipped_empty=result.skipped_empty,
    )
    return result


def score_against_ground_truth(
    tests: Sequence[ReducedTest], result: DedupResult
) -> dict[str, int]:
    """Table 4's columns: Tests / Sigs / Reports / Distinct / Dups.

    Requires ``ground_truth_bug`` on every test.
    """
    signatures = {t.ground_truth_bug for t in tests if t.ground_truth_bug}
    chosen_bugs = [
        t.ground_truth_bug for t in result.to_investigate if t.ground_truth_bug
    ]
    distinct = len(set(chosen_bugs))
    return {
        "tests": len(tests),
        "sigs": len(signatures),
        "reports": result.report_count,
        "distinct": distinct,
        "dups": result.report_count - distinct,
    }
