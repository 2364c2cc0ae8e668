"""Performance layer: parallel campaign execution, speculative parallel
reduction, and replay-prefix caching.

An extension beyond the paper (DESIGN.md §7): the paper's pipeline is
correct but pays full price for every probe — campaigns run one seed at a
time and every delta-debugging candidate is replayed from the original
module.  This package makes both hot paths cheaper without changing a
single observable result: parallel campaigns are merged back into serial
order, the reduction engine (:mod:`repro.perf.parallel_reduce`, which runs
every ddmin leg of a :class:`~repro.reduce.PassPipeline` — it has no entry
point of its own) commits speculative verdicts in serial scan order
(byte-identical transformations at every worker count), and cached
reductions are byte-identical to uncached ones.  Campaign shards and
reduction probes fan out over one spec-keyed :class:`WorkerPool`
(:mod:`repro.perf.pool`) with one worker-death rule.

The probe-throughput layer (:mod:`repro.perf.probe_cache`) extends the same
discipline down into compilation: content-hash memoization of pipelines,
per-pass stages, and executions — byte-identical to the uncached path.
"""

import importlib

#: Each re-exported name and the submodule that defines it.  The package
#: imports nothing up front (PEP 562): a harness needs only
#: :mod:`repro.perf.probe_cache`, and importing every sibling with it would
#: add the pools and the reduction engine to every start-up.
_EXPORTS = {
    "CampaignSpec": "parallel",
    "default_worker_count": "parallel",
    "spec_names_for": "parallel",
    "ReductionSession": "parallel_reduce",
    "SpeculationStats": "parallel_reduce",
    "SpeculativeReduction": "parallel_reduce",
    "CachedOptimizer": "probe_cache",
    "CachingTarget": "probe_cache",
    "ProbeCache": "probe_cache",
    "ProbeCacheStats": "probe_cache",
    "CallableProbeSpec": "pool",
    "FindingProbeSpec": "pool",
    "WorkerPool": "pool",
    "WorkerProbeError": "pool",
    "CachedReplayer": "replay_cache",
    "ReplayStats": "replay_cache",
}


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)


__all__ = sorted(_EXPORTS)
