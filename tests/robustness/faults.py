"""Fault-injection test doubles: targets that misbehave as *processes*.

All classes are module-level (hence picklable) so they can cross process
boundaries — into supervised probe workers and parallel campaign workers.

``FaultyTarget`` misbehaves only on *variant* probes: it is constructed with
the disassembly of the reference program and delegates clean probes (module
text equal to the reference) to an inner well-behaved target, so the
harness's reference run stays healthy and faults are attributable to the
fuzzed variant — which is what produces timeout/resource/worker-crash
*findings* rather than just quarantine fodder.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro.compilers.base import TargetOutcome
from repro.core.transformation import sequence_to_json
from repro.interp.interpreter import ExecutionResult
from repro.ir.printer import disassemble

#: Wall-clock bound used by the suite's hang tests; CI tightens it via env.
PROBE_TIMEOUT = float(os.environ.get("REPRO_PROBE_TIMEOUT", "1.0"))


def finding_key(finding) -> tuple:
    """Everything that makes a finding *the same finding*, as a comparable
    value — used to assert resumed/parallel/supervised campaigns reproduce
    uninterrupted ones exactly."""
    return (
        finding.seed,
        finding.target_name,
        finding.program_name,
        finding.signature,
        finding.kind,
        finding.optimized_flow,
        bool(finding.nondeterministic),
        finding.ground_truth_bug,
        json.dumps(sequence_to_json(finding.transformations), sort_keys=True),
        json.dumps(finding.inputs, sort_keys=True),
        disassemble(finding.original),
    )


def result_key(result) -> tuple:
    """A comparable identity for a whole :class:`CampaignResult`."""
    return (
        [finding_key(f) for f in result.findings],
        [
            (
                run.program_name,
                run.seed,
                run.transformation_count,
                tuple(run.skipped_targets),
                tuple(run.faults),
                [finding_key(f) for f in run.findings],
            )
            for run in result.seed_runs
        ],
        dict(result.quarantined),
    )


@dataclass
class FaultyTarget:
    """Misbehaves on every probe whose module differs from the reference.

    Modes: ``hang`` (sleeps forever), ``oom`` (raises ``MemoryError``),
    ``alloc`` (really allocates until the RSS cap bites), ``raise``
    (unhandled exception), ``exit`` (hard process death), ``ok`` (never
    misbehaves).
    """

    mode: str
    name: str = "Faulty"
    version: str = "0"
    gpu_type: str = "Test"
    enabled_bugs: frozenset = frozenset()
    #: Disassembly of the module to treat as the (clean) reference probe.
    reference_text: str | None = None
    #: Optional well-behaved delegate for clean probes.
    inner: object = None

    def _clean(self, module, inputs) -> TargetOutcome:
        if self.inner is not None:
            return self.inner.run(module, inputs)
        return TargetOutcome.ok(ExecutionResult())

    def run(self, module, inputs=None) -> TargetOutcome:
        if self.reference_text is not None and disassemble(module) == self.reference_text:
            return self._clean(module, inputs)
        if self.mode == "hang":
            time.sleep(3600)
        elif self.mode == "oom":
            raise MemoryError("simulated allocation failure")
        elif self.mode == "alloc":
            hoard = []
            while True:  # a real blow-up, stopped by the worker's RLIMIT_AS
                hoard.append(bytearray(16 * 1024 * 1024))
        elif self.mode == "raise":
            raise ZeroDivisionError("buggy pass divided by zero")
        elif self.mode == "exit":
            os._exit(13)
        return self._clean(module, inputs)


@dataclass
class FlakyTarget:
    """Crashes with an alternating message, so its verdict never reproduces."""

    name: str = "Flaky"
    version: str = "0"
    gpu_type: str = "Test"
    enabled_bugs: frozenset = frozenset()
    calls: int = 0

    def run(self, module, inputs=None) -> TargetOutcome:
        self.calls += 1
        flavor = "alpha" if self.calls % 2 else "beta"
        return TargetOutcome.crash(f"flaky assertion {flavor} failed")


# -- parallel-campaign fault injection ---------------------------------------------


class _CrashyHarness:
    """Kills its worker process for designated seeds; well-behaved in the
    parent (``multiprocessing.parent_process()`` is None there), so the
    pool's in-parent fallback can recover the lost seed.  Each run records
    where it ran in its program name: ``crashy@worker`` or
    ``crashy@parent``."""

    def __init__(self, kill_seeds) -> None:
        self.kill_seeds = set(kill_seeds)

    def run_seed(self, seed: int):
        import multiprocessing

        from repro.core.harness import SeedRun

        in_worker = multiprocessing.parent_process() is not None
        if seed in self.kill_seeds and in_worker:
            os._exit(42)
        return SeedRun(
            program_name="crashy@worker" if in_worker else "crashy@parent",
            seed=seed,
            transformation_count=seed,
        )


@dataclass(frozen=True)
class CrashySpec:
    """A CampaignSpec stand-in whose harness kills workers on chosen seeds."""

    kill_seeds: tuple = ()

    def build(self) -> _CrashyHarness:
        return _CrashyHarness(self.kill_seeds)
