"""The paper's core contribution: transformation-based compiler testing with
test-case reduction and deduplication almost for free."""

from repro.core.context import Context
from repro.core.dedup import (
    DedupResult,
    ReducedTest,
    deduplicate,
    score_against_ground_truth,
    type_signature_of,
)
from repro.core.dedup_corpus import synthetic_reduced_tests
from repro.core.dedup_scale import (
    DedupJournal,
    StreamingDedup,
    iter_stream_tests,
    stream_dedup,
)
from repro.core.facts import DataDescriptor, FactManager, plain
from repro.core.fuzzer import Fuzzer, FuzzerOptions, FuzzResult, PAPER_TRANSFORMATION_LIMIT
from repro.core.harness import (
    CampaignResult,
    Finding,
    Harness,
    SeedRun,
    classify_outcome,
    run_quick_campaign,
)
from repro.core.reducer import (
    PayloadShrinkResult,
    ReductionResult,
    naive_reduce,
    reduce_transformations,
    replay,
    shrink_add_function_payloads,
    spirv_reduce,
)
from repro.core.regression import export_regression_test
from repro.core.signature import (
    MISCOMPILATION_SIGNATURE,
    crash_signature,
    invalid_ir_signature,
)
from repro.core.transformation import (
    SUPPORTING_TYPES,
    Transformation,
    apply_sequence,
    effective_types,
    sequence_from_json,
    sequence_to_json,
)

__all__ = [
    "CampaignResult",
    "Context",
    "DataDescriptor",
    "DedupJournal",
    "DedupResult",
    "FactManager",
    "Finding",
    "Fuzzer",
    "FuzzerOptions",
    "FuzzResult",
    "Harness",
    "MISCOMPILATION_SIGNATURE",
    "PAPER_TRANSFORMATION_LIMIT",
    "ReducedTest",
    "ReductionResult",
    "SUPPORTING_TYPES",
    "StreamingDedup",
    "SeedRun",
    "Transformation",
    "apply_sequence",
    "classify_outcome",
    "crash_signature",
    "deduplicate",
    "effective_types",
    "export_regression_test",
    "invalid_ir_signature",
    "iter_stream_tests",
    "naive_reduce",
    "plain",
    "PayloadShrinkResult",
    "reduce_transformations",
    "replay",
    "shrink_add_function_payloads",
    "run_quick_campaign",
    "score_against_ground_truth",
    "sequence_from_json",
    "sequence_to_json",
    "spirv_reduce",
    "stream_dedup",
    "synthetic_reduced_tests",
    "type_signature_of",
]
