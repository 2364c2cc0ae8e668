"""Time one fresh set-up of a workload's program and print the seconds.

Run in a new interpreter by ``run.py`` several times per run, so each
sample includes importing ``repro`` as well as building the harness,
targets and corpus (and, for ``service``, opening the store and starting
the fleet).  The timer starts after interpreter start-up and stops before
tear-down.  The host-speed kernel is timed right before and after, on the
same CPU, and the last line is ``<adjusted seconds> <raw seconds>``
(see ``stats.HostMeter``).

    python3 perfbench/setup_probe.py campaign
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from stats import HOST_REFERENCE_MS, host_kernel_ms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports no repro module)


def main(argv: list[str]) -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[argv[0]](seed=0, seconds=1.0, smoke=True)
    before = host_kernel_ms()
    started = time.perf_counter()
    program = workload.setup()
    raw = time.perf_counter() - started
    after = host_kernel_ms()
    workload.teardown(program)
    print(repr(raw * HOST_REFERENCE_MS * 2.0 / (before + after)), repr(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
