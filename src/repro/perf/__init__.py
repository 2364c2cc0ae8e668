"""Performance layer: parallel campaign execution, speculative parallel
reduction, and replay-prefix caching.

An extension beyond the paper (DESIGN.md §7): the paper's pipeline is
correct but pays full price for every probe — campaigns run one seed at a
time and every delta-debugging candidate is replayed from the original
module.  This package makes both hot paths cheaper without changing a
single observable result: parallel campaigns are merged back into serial
order, speculative parallel reduction commits verdicts in serial scan order
(byte-identical transformations at every worker count), and cached
reductions are byte-identical to uncached ones.  Campaign shards and
reduction probes fan out over one spec-keyed :class:`WorkerPool`
(:mod:`repro.perf.pool`) with one worker-death rule.

The probe-throughput layer (:mod:`repro.perf.probe_cache` /
:mod:`repro.perf.batch`) extends the same discipline down into compilation:
content-hash memoization of pipelines, per-pass stages, and executions, plus
batched supervised probes — all byte-identical to the uncached, unbatched
paths.
"""

from repro.perf.batch import ProbeBatch
from repro.perf.parallel import CampaignSpec, default_worker_count, spec_names_for
from repro.perf.parallel_reduce import (
    ParallelReductionResult,
    ReductionSession,
    SpeculationStats,
    SpeculativeReduction,
    parallel_reduce,
)
from repro.perf.probe_cache import (
    CachedOptimizer,
    CachingTarget,
    ProbeCache,
    ProbeCacheStats,
)
from repro.perf.pool import (
    CallableProbeSpec,
    FindingProbeSpec,
    WorkerPool,
    WorkerProbeError,
)
from repro.perf.replay_cache import CachedInterestingness, CachedReplayer, ReplayStats

__all__ = [
    "CachedInterestingness",
    "CachedOptimizer",
    "CachedReplayer",
    "CachingTarget",
    "CallableProbeSpec",
    "CampaignSpec",
    "FindingProbeSpec",
    "ParallelReductionResult",
    "ProbeBatch",
    "ProbeCache",
    "ProbeCacheStats",
    "ReductionSession",
    "ReplayStats",
    "SpeculationStats",
    "SpeculativeReduction",
    "WorkerPool",
    "WorkerProbeError",
    "default_worker_count",
    "parallel_reduce",
    "spec_names_for",
]
