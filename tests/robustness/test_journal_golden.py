"""Golden on-disk reduction journals.

Service recovery resumes journals written before an upgrade, so the journal
bytes are a format, not an implementation detail: the fixtures under
``golden/`` were written by the reducer before its serial, parallel and
fault-tolerant paths were folded into one engine, and every later version
must reproduce them byte for byte.  Regenerate them only for an intentional
format change.

The same file pins pipeline/classic parity: a fault-mode
``PassPipeline(["ddmin"])`` reduces exactly like ``reduce_with_faults``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.perf.pool import CallableProbeSpec, WorkerPool
from repro.reduce import PassPipeline, PipelineContext, ReductionConfig
from repro.robustness import ProbeVerdict, ReductionPolicy, reduce_with_faults

GOLDEN = Path(__file__).parent / "golden"

#: No sleeps, deterministic voting.
POLICY = ReductionPolicy(retry_backoff=0.0)

SEQUENCE = list("abcdefghijkl")
NEEDLES = frozenset({"c", "i"})


@dataclass(frozen=True)
class FaultOnOne:
    """Interesting iff every needle survives; every probe of one fixed
    candidate times out, so the journal records retries and a faulted
    decision."""

    needles: frozenset
    fault_on: tuple

    def __call__(self, candidate) -> ProbeVerdict:
        if tuple(candidate) == self.fault_on:
            return ProbeVerdict(False, fault="timeout")
        return ProbeVerdict(self.needles <= set(candidate))


#: The reducer's guaranteed first candidate: the input minus its trailing
#: half-chunk.
FAULT_ORACLE = FaultOnOne(NEEDLES, tuple(SEQUENCE[: len(SEQUENCE) // 2]))


@dataclass(frozen=True)
class Typed:
    """A stand-in transformation with a ``type_name`` for type-batch."""

    type_name: str
    value: int


TYPED = [Typed(("alpha", "beta", "gamma")[i % 3], i) for i in range(18)]
#: Three needles share a type, so type-batch still has a batch to probe
#: after ddmin.
TYPED_NEEDLES = (TYPED[1], TYPED[2], TYPED[4], TYPED[7])


@dataclass(frozen=True)
class TypedHashedFaulty:
    """Seeded-irregular verdicts over ``Typed`` sequences, with every probe
    of the first ddmin candidate timing out."""

    needles: tuple
    salt: int
    total: int
    fault_on: tuple

    def __call__(self, candidate) -> ProbeVerdict:
        items = tuple(candidate)
        if items == self.fault_on:
            return ProbeVerdict(False, fault="timeout")
        if not all(needle in items for needle in self.needles):
            return ProbeVerdict(False)
        if len(items) == self.total:
            return ProbeVerdict(True)
        digest = hashlib.md5(repr((self.salt, items)).encode()).digest()
        return ProbeVerdict(digest[0] % 3 != 0)


TYPED_ORACLE = TypedHashedFaulty(
    TYPED_NEEDLES, 3, len(TYPED), tuple(TYPED[: len(TYPED) // 2])
)


def write_fault_journal(path: Path):
    return reduce_with_faults(SEQUENCE, FAULT_ORACLE, POLICY, journal=path)


def write_pipeline_journal(path: Path):
    ctx = PipelineContext(
        verdict_test=TYPED_ORACLE, config=ReductionConfig(policy=POLICY), journal=path
    )
    return PassPipeline(["ddmin", "type-batch"]).run(TYPED, ctx)


class TestGoldenJournals:
    def test_reduce_with_faults_journal_bytes(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        result = write_fault_journal(journal)
        assert result.stability["faults"] == {"timeout": 3}
        assert journal.read_bytes() == (
            GOLDEN / "reduce_with_faults.jsonl"
        ).read_bytes()

    def test_pipeline_journal_bytes(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        result = write_pipeline_journal(journal)
        assert result.stability["faults"]
        assert journal.read_bytes() == (
            GOLDEN / "pipeline_ddmin_type_batch.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize(
        "writer, fixture",
        [
            (write_fault_journal, "reduce_with_faults.jsonl"),
            (write_pipeline_journal, "pipeline_ddmin_type_batch.jsonl"),
        ],
    )
    def test_golden_journal_resumes_without_probing(self, tmp_path, writer, fixture):
        """A journal written by the older reducer replays completely: the
        resumed run probes nothing and leaves it byte-identical."""
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes((GOLDEN / fixture).read_bytes())
        fresh = writer(tmp_path / "fresh.jsonl")
        probed = []

        def counting(oracle):
            def test(candidate):
                probed.append(tuple(candidate))
                return oracle(candidate)

            return test

        if writer is write_fault_journal:
            resumed = reduce_with_faults(
                SEQUENCE, counting(FAULT_ORACLE), POLICY, journal=journal, resume=True
            )
        else:
            ctx = PipelineContext(
                verdict_test=counting(TYPED_ORACLE),
                config=ReductionConfig(policy=POLICY),
                journal=journal,
                resume=True,
            )
            resumed = PassPipeline(["ddmin", "type-batch"]).run(TYPED, ctx)
        assert probed == []
        assert resumed.to_json() == fresh.to_json()
        assert journal.read_bytes() == (GOLDEN / fixture).read_bytes()


class TestPipelineClassicParity:
    """``PassPipeline(["ddmin"])`` in fault mode is the classic fault-tolerant
    reduction: same sequence, tests, accepted-chunk history and stability.
    At K=2 the pipeline's ddmin leg runs on a worker pool, as under the
    harness."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "items, oracle",
        [(SEQUENCE, FAULT_ORACLE), (TYPED, TYPED_ORACLE)],
        ids=["fault-on-one", "typed-hashed"],
    )
    def test_ddmin_pipeline_matches_reduce_with_faults(self, items, oracle, workers):
        classic = reduce_with_faults(items, oracle, POLICY, workers=workers)
        pool = None
        if workers > 1:
            spec = CallableProbeSpec(
                test=oracle, items=tuple(items), decide=True, policy=POLICY
            )
            pool = WorkerPool({"reduction": spec}, workers)
        try:
            piped = PassPipeline(["ddmin"]).run(
                items,
                PipelineContext(
                    verdict_test=oracle,
                    config=ReductionConfig(policy=POLICY, workers=workers),
                    pool=pool,
                ),
            )
        finally:
            if pool is not None:
                pool.close()
        assert piped.transformations == classic.transformations
        assert piped.tests_run == classic.tests_run
        assert piped.history == classic.history
        assert piped.stability == classic.stability
        assert piped.degraded is None and classic.degraded is None
