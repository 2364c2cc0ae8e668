"""Write ``pins/campaign.json``: the pinned outcome of every pool seed.

The campaign workload draws its seeds from ``range(SEED_POOL)`` and checks
each seed's findings, probe count and finding digest against this file,
so a change that alters what a campaign finds fails the benchmark.  Each
entry also records the seed's host-adjusted cost in ms (see
``stats.HostMeter``); the workload only uses it to draw seed lists of
equal cost.  Every
pool seed must first pass the workload's configuration-only check, so no
seed the benchmark can draw fails it on working code.
Regenerate only when such a change is intended:

    python3 perfbench/pin_campaign.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from stats import HostMeter  # noqa: E402
from workloads import (  # noqa: E402
    MAX_TRANSFORMATIONS,
    PINS_PATH,
    SEED_POOL,
    CampaignWorkload,
    SeedOracle,
    seed_run_pin,
)


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    harness = CampaignWorkload(0, 1.0).setup()
    oracle = SeedOracle()
    meter = HostMeter()
    seeds = {}
    for seed in range(SEED_POOL):
        before = harness.metrics.counter("probes")
        with meter.timed():
            run = harness.run_seed(seed)
        cost_ms = round(meter.latencies[-1] * 1e3, 1)
        probes = harness.metrics.counter("probes") - before
        if not oracle.plausible(run, probes):
            print(f"seed {seed} fails the campaign check; not pinned", file=sys.stderr)
            return 1
        seeds[str(seed)] = [*seed_run_pin(run, probes), cost_ms]
    PINS_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "pool": SEED_POOL,
        "programs": len(harness.references),
        "max_transformations": MAX_TRANSFORMATIONS,
        "seeds": seeds,
    }
    PINS_PATH.write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"pinned {len(seeds)} seeds to {PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
