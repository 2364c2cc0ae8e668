"""The paper's core contribution: transformation-based compiler testing with
test-case reduction and deduplication almost for free."""

import importlib

#: Each re-exported name and the submodule that defines it.  The package
#: imports nothing up front (PEP 562), so a campaign harness does not pay
#: for the deduplication and regression modules it never uses.
_EXPORTS = {
    "Context": "context",
    "DedupResult": "dedup",
    "ReducedTest": "dedup",
    "deduplicate": "dedup",
    "score_against_ground_truth": "dedup",
    "type_signature_of": "dedup",
    "synthetic_reduced_tests": "dedup_corpus",
    "DedupJournal": "dedup_scale",
    "StreamingDedup": "dedup_scale",
    "iter_stream_tests": "dedup_scale",
    "stream_dedup": "dedup_scale",
    "DataDescriptor": "facts",
    "FactManager": "facts",
    "plain": "facts",
    "Fuzzer": "fuzzer",
    "FuzzerOptions": "fuzzer",
    "FuzzResult": "fuzzer",
    "PAPER_TRANSFORMATION_LIMIT": "fuzzer",
    "CampaignResult": "harness",
    "Finding": "harness",
    "Harness": "harness",
    "SeedRun": "harness",
    "classify_outcome": "harness",
    "PayloadShrinkResult": "reducer",
    "ReductionResult": "reducer",
    "naive_reduce": "reducer",
    "reduce_transformations": "reducer",
    "replay": "reducer",
    "shrink_add_function_payloads": "reducer",
    "spirv_reduce": "reducer",
    "export_regression_test": "regression",
    "MISCOMPILATION_SIGNATURE": "signature",
    "crash_signature": "signature",
    "invalid_ir_signature": "signature",
    "SUPPORTING_TYPES": "transformation",
    "Transformation": "transformation",
    "apply_sequence": "transformation",
    "effective_types": "transformation",
    "sequence_from_json": "transformation",
    "sequence_to_json": "transformation",
}


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)


__all__ = sorted(_EXPORTS)
