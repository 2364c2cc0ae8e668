"""Campaign specs and seed sharding for parallel campaigns.

A campaign is embarrassingly parallel across seeds: each seed's fuzz/run
cycle is deterministic given the seed, the target set, and the corpus, and
targets never share state between seeds (reference outcomes are a pure
per-target cache).  We shard the seed sequence into contiguous chunks
(:func:`seed_shards`), rebuild the harness *inside* each worker from a
picklable :class:`CampaignSpec` (targets hold pass-pipeline objects and
corpora hold IR modules — cheap to reconstruct, wasteful to ship), and run
each shard as one :class:`~repro.perf.pool.WorkerPool` submission; shard
results come back in submission order, so parallel results are
byte-identical to serial ones.

``workers=1`` never touches a process pool: callers run the original
serial loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Sequence


def default_worker_count() -> int:
    """Worker count used when a caller asks for "all the hardware"."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CampaignSpec:
    """A picklable recipe for rebuilding a campaign harness in a worker.

    Targets and corpus programs are named, not serialized: workers call the
    same deterministic factories (:func:`repro.compilers.make_target`,
    :func:`repro.corpus.reference_programs`, ...) the parent used, so the
    rebuilt harness is behaviourally identical to the original.
    """

    kind: str  #: "core" (transformation harness) | "baseline" (glsl-fuzz)
    target_names: tuple[str, ...]
    reference_names: tuple[str, ...] | None = None  #: None = full corpus, in order
    donor_names: tuple[str, ...] | None = None  #: core only; None = full corpus
    options: Any = None  #: FuzzerOptions (core only; a picklable dataclass)
    rounds: int = 25  #: baseline only
    optimized_flow: bool = True
    robustness: Any = None  #: RobustnessConfig; workers supervise probes too
    #: Trace file path; workers build their own Tracer over it and rely on
    #: O_APPEND line atomicity to share the file with the parent.
    trace: str | None = None
    #: Probe-throughput layer (core only): each worker gets its own
    #: content-hash probe cache, mirroring the parent.
    probe_cache: bool = True

    def build(self):
        """Construct a fresh harness equivalent to the one that produced
        this spec."""
        from repro.compilers import make_target

        targets = [make_target(name) for name in self.target_names]
        if self.kind == "core":
            from repro.core.harness import Harness
            from repro.corpus import donor_programs, reference_programs

            references = _select(reference_programs(), self.reference_names)
            donors = _select(donor_programs(), self.donor_names)
            return Harness(
                targets,
                references,
                donors,
                self.options,
                optimized_flow=self.optimized_flow,
                robustness=self.robustness,
                tracer=self.trace,
                probe_cache=self.probe_cache,
            )
        if self.kind == "baseline":
            from repro.baseline import source_programs
            from repro.baseline.harness import BaselineHarness

            references = _select(source_programs(), self.reference_names)
            return BaselineHarness(
                targets,
                references,
                rounds=self.rounds,
                optimized_flow=self.optimized_flow,
                robustness=self.robustness,
                tracer=self.trace,
            )
        raise ValueError(f"unknown campaign spec kind {self.kind!r}")


def _select(programs: list, names: tuple[str, ...] | None) -> list:
    if names is None:
        return programs
    by_name = {program.name: program for program in programs}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(
            f"programs not in the standard corpus: {missing}; "
            "pass an explicit spec to run custom corpora in parallel"
        )
    return [by_name[name] for name in names]


def spec_names_for(programs: Sequence, factory) -> tuple[str, ...]:
    """Validate that *programs* are drawn from *factory*'s corpus and return
    their names in order (raises ``ValueError`` otherwise — a custom corpus
    cannot be rebuilt by name inside a worker)."""
    known = {program.name for program in factory()}
    names = tuple(program.name for program in programs)
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            "cannot run a parallel campaign over a non-standard corpus "
            f"(unknown programs: {unknown}); run with workers=1 or provide "
            "a custom CampaignSpec"
        )
    return names


#: Campaign shards per worker: several, so a slow shard (seed cost varies
#: with the variant) cannot serialize the pool.
SHARDS_PER_WORKER = 4


def seed_shards(seeds: Sequence[int], workers: int) -> list[list[int]]:
    """Contiguous, order-preserving chunks of *seeds*,
    :data:`SHARDS_PER_WORKER` per worker."""
    seeds = list(seeds)
    if not seeds:
        return []
    count = min(len(seeds), max(1, workers) * SHARDS_PER_WORKER)
    base, extra = divmod(len(seeds), count)
    shards = []
    position = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(seeds[position : position + size])
        position += size
    return shards
