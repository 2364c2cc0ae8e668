"""Creduce-style reduction pass pipeline (beyond the paper; §3.4 + creduce).

The paper's reducer is a single ddmin loop with two ad-hoc post-passes
bolted on.  Real-world reducers (creduce, ReduKtor) win by sequencing many
small passes to a global fixpoint under a give-up budget; this package
provides that scheduler plus four passes wrapping the existing machinery,
all probing through the fault envelope, the speculative parallel engine,
and the fsync'd reduction journal.
"""

from repro.reduce.pipeline import (
    DEFAULT_GIVEUP,
    PassPipeline,
    PassStats,
    PipelineContext,
    PipelineResult,
    ReductionConfig,
    ReductionPass,
    pass_scoped_key,
)
from repro.reduce.passes import (
    DEFAULT_PASS_NAMES,
    PASS_REGISTRY,
    DdminPass,
    PayloadShrinkPass,
    SpirvCleanupPass,
    TypeBatchRemovalPass,
    passes_from_names,
)

__all__ = [
    "DEFAULT_GIVEUP",
    "DEFAULT_PASS_NAMES",
    "PASS_REGISTRY",
    "DdminPass",
    "PassPipeline",
    "PassStats",
    "PayloadShrinkPass",
    "PipelineContext",
    "PipelineResult",
    "ReductionConfig",
    "ReductionPass",
    "SpirvCleanupPass",
    "TypeBatchRemovalPass",
    "pass_scoped_key",
    "passes_from_names",
]
