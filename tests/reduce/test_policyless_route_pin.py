"""The policy-less reduction route, pinned.

A reduction run without a :class:`~repro.robustness.ReductionPolicy` decides
every candidate through the flake-hardened oracle with trusting constants
(one probe per decision, no retries, no votes).  It must reach exactly what
the plain delta-debugging loop over one interestingness test reaches.  Over
the findings of fuzz seeds 0–11 on the non-GPU targets, the sha256 over each
reduction's result JSON (minus ``stability``), accepted-chunk ``history``,
per-pass stats and cleaned-module fingerprint is pinned for three configs:
the paper's ddmin, the default pass pipeline, and two pool workers.
"""

from __future__ import annotations

import hashlib
import json

from repro.compilers import make_target
from repro.compilers.targets import NON_GPU_TARGET_NAMES
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.reduce import DEFAULT_PASS_NAMES, ReductionConfig

SEEDS = range(12)
CONFIGS = {
    "ddmin": ReductionConfig(),
    "passes": ReductionConfig(passes=DEFAULT_PASS_NAMES),
    "workers": ReductionConfig(workers=2),
}
PINNED = {
    "ddmin": "962cc5000796afe8d05fc668603a5edefa0df75e55204a14d0364b46e30efb24",
    "passes": "dba6f3b5a411c54fd70f190347f30ffa010c6a7a7bce7ccb54bebc54d299bbd7",
    # Pooled and serial reductions are byte-identical.
    "workers": "962cc5000796afe8d05fc668603a5edefa0df75e55204a14d0364b46e30efb24",
}
PINNED_FINDINGS = 29


def _digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        data = result.to_json()
        data.pop("stability", None)
        digest.update(json.dumps(data, sort_keys=True).encode())
        digest.update(json.dumps([list(h) for h in result.history]).encode())
        digest.update(
            json.dumps([s.to_json() for s in result.pass_stats]).encode()
        )
        cleaned = result.cleaned_module
        digest.update(
            (repr(cleaned.fingerprint()) if cleaned is not None else "-").encode()
        )
    return digest.hexdigest()


def test_policyless_reductions_are_pinned(references, donors):
    harness = Harness(
        [make_target(name) for name in NON_GPU_TARGET_NAMES],
        references,
        donors,
        FuzzerOptions(max_transformations=100),
    )
    try:
        findings = harness.run_campaign(SEEDS).findings
        digests = {
            name: _digest(harness.reduce_all(findings, config))
            for name, config in CONFIGS.items()
        }
    finally:
        harness.close()
    assert (digests, len(findings)) == (PINNED, PINNED_FINDINGS)
