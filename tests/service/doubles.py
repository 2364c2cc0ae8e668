"""Fault-injection spec doubles for the campaign service.

Each double mimics :class:`repro.perf.parallel.CampaignSpec` just enough
for the fleet and the finalizer: ``build()`` returns a harness exposing
``run_seed`` / ``references`` / ``metrics`` / ``probe_cache`` / ``close``.
Seed runs carry no findings, so the journal records round-trip without a
corpus.

The "once" doubles misbehave only until their marker file exists (created
*before* the fault fires), so the first lease on the poisoned seed fails
and the re-granted lease succeeds — exercising requeue-exactly-once with
a deterministic final result.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.core.harness import SeedRun
from repro.observability import Metrics


class _DoubleHarness:
    def __init__(self, spec) -> None:
        self.spec = spec
        self.references: list = []
        self.metrics = Metrics()
        self.probe_cache = None
        self.closed = False

    def run_seed(self, seed: int) -> SeedRun:
        self.spec.misbehave(seed)
        self.metrics.inc("probes", 3)
        return SeedRun(
            program_name="double", seed=seed, transformation_count=seed * 3 + 1
        )

    def close(self) -> None:
        self.closed = True


@dataclass(frozen=True)
class WellBehavedSpec:
    robustness: object = None

    def misbehave(self, seed: int) -> None:
        pass

    def build(self) -> _DoubleHarness:
        return _DoubleHarness(self)


@dataclass(frozen=True)
class CrashOnceSpec:
    """Kills its worker on *crash_seed* — but only the first time."""

    marker: str
    crash_seed: int
    robustness: object = None

    def misbehave(self, seed: int) -> None:
        if seed == self.crash_seed and not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os._exit(42)

    def build(self) -> _DoubleHarness:
        return _DoubleHarness(self)


@dataclass(frozen=True)
class HangOnceSpec:
    """Hangs (past any sane lease TTL) on *hang_seed* — first time only."""

    marker: str
    hang_seed: int
    sleep: float = 60.0
    robustness: object = None

    def misbehave(self, seed: int) -> None:
        if seed == self.hang_seed and not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            time.sleep(self.sleep)

    def build(self) -> _DoubleHarness:
        return _DoubleHarness(self)


@dataclass(frozen=True)
class AlwaysCrashSpec:
    """Deterministically kills every worker that touches *crash_seed* —
    the poisoned-batch case."""

    crash_seed: int
    robustness: object = None

    def misbehave(self, seed: int) -> None:
        if seed == self.crash_seed:
            os._exit(42)

    def build(self) -> _DoubleHarness:
        return _DoubleHarness(self)


class _FaultyDoubleHarness(_DoubleHarness):
    def run_seed(self, seed: int) -> SeedRun:
        run = super().run_seed(seed)
        if seed % 2:
            run.faults = (("Faulty", "timeout"),)
        return run


@dataclass(frozen=True)
class FaultySeedSpec:
    """Journals a supervision fault on every odd seed — feeds the service's
    post-hoc quarantine accounting without any real supervision."""

    robustness: object = None

    def misbehave(self, seed: int) -> None:
        pass

    def build(self) -> _FaultyDoubleHarness:
        return _FaultyDoubleHarness(self)


class _GarbageDoubleHarness(_DoubleHarness):
    def run_seed(self, seed: int) -> SeedRun:
        run = super().run_seed(seed)
        if seed == self.spec.garbage_seed and not os.path.exists(
            self.spec.marker
        ):
            with open(self.spec.marker, "w"):
                pass
            # A corrupted worker: the shipped record will carry a non-string
            # program name, which the engine's record validation must refuse
            # to journal (killing this worker); the marker makes the
            # re-granted batch behave, so the campaign still completes.
            run.program_name = None
        return run


@dataclass(frozen=True)
class GarbageOnceSpec:
    """Ships one structurally garbage seed record — first time only."""

    marker: str
    garbage_seed: int
    robustness: object = None

    def misbehave(self, seed: int) -> None:
        pass

    def build(self) -> _GarbageDoubleHarness:
        return _GarbageDoubleHarness(self)


@dataclass(frozen=True)
class SlowSpec:
    """Sleeps per seed (keeps leases alive via heartbeats) — the
    time-budget case."""

    delay: float = 0.1
    robustness: object = None

    def misbehave(self, seed: int) -> None:
        time.sleep(self.delay)

    def build(self) -> _DoubleHarness:
        return _DoubleHarness(self)


#: Every harness a :class:`CountingSpec` built in this process, in order.
BUILDS: list = []


@dataclass(frozen=True)
class CountingSpec:
    """Records each harness it builds in :data:`BUILDS` (an in-process
    count: drive the fleet's batch server directly); raises on
    *raise_seed*, every time."""

    tag: str = "a"
    raise_seed: int | None = None
    robustness: object = None

    def misbehave(self, seed: int) -> None:
        if seed == self.raise_seed:
            raise RuntimeError(f"seed {seed} raised")

    def build(self) -> _DoubleHarness:
        harness = _DoubleHarness(self)
        BUILDS.append(harness)
        return harness


class _UnreducibleDoubleHarness(_DoubleHarness):
    @property
    def references(self) -> list:
        raise RuntimeError("no references to reduce against")

    @references.setter
    def references(self, value) -> None:
        pass


@dataclass(frozen=True)
class RaisingFinalizeSpec:
    """Seeds run fine; a reducing finalize raises when it asks the harness
    for its references (the fleet worker never does)."""

    robustness: object = None

    def misbehave(self, seed: int) -> None:
        pass

    def build(self) -> _UnreducibleDoubleHarness:
        harness = _UnreducibleDoubleHarness(self)
        BUILDS.append(harness)
        return harness
