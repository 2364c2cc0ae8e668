"""The benchmark's three workloads.

Each workload makes its inputs from a seed (benchmark-side, never timed),
sets the program up, runs a fixed list of ops, and checks the outputs with
code of its own.  The amount of work is a fixed function of
``(seed, seconds)``: ``seconds`` sizes the op list through a nominal rate
per workload, so a faster program finishes the same work sooner rather
than doing more of it.

No ``repro`` import happens at module level: :meth:`Workload.setup` does
the program's imports, so a fresh-process set-up (``setup_probe.py``)
times importing the program as well as building it.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from stats import TICK_SECONDS, HostMeter, chunks

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
PINS_PATH = BENCH_DIR / "pins" / "campaign.json"

#: Campaign seeds are drawn from ``range(SEED_POOL)``; every one of them
#: has its findings and probe count pinned in ``pins/campaign.json``.
SEED_POOL = 1000
#: Share of the pool, by pinned cost, that campaign runs never draw.
HEAVY_SHARE = 0.02
#: The CLI's ``repro-campaign`` default.
MAX_TRANSFORMATIONS = 120
#: Smallest op count for which p90 has ten samples beyond it.
MIN_TAIL_OPS = 100


@dataclass
class RunResult:
    """What one pass over a workload's ops produced."""

    #: Reported seconds per op, and the reported seconds of the whole
    #: pass (ops only), host-adjusted.
    latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    #: The same, unadjusted, and every host-kernel reading in ms.
    raw_latencies: list[float] = field(default_factory=list)
    raw_wall: float = 0.0
    host_ms: list[float] = field(default_factory=list)
    probes: int = 0  #: target probes issued
    failed: set = field(default_factory=set)  #: indices of failed ops
    outputs: list = field(default_factory=list)  #: per-op outputs to check
    #: Deterministic counts; equal across runs of one seed, traced or not.
    counts: dict = field(default_factory=dict)
    #: Per-layer figures the program's own stats give (ratios, counts).
    layer: dict = field(default_factory=dict)

    def take(self, meter: HostMeter) -> None:
        self.latencies = meter.latencies
        self.wall = meter.busy
        self.raw_latencies = meter.raw_latencies
        self.raw_wall = meter.raw_busy
        self.host_ms = meter.host_ms


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def cost_stratified_seeds(rng: random.Random, pins: dict, count: int) -> list[int]:
    """*count* pool seeds, shuffled.  The pool is ordered by pinned cost
    and cut into *count* strata of neighbouring cost, one seed drawn from
    each, so the k-th costliest op of every run costs about the same:
    seeds change a run's content, not its cost or its latency tail.

    The costliest :data:`HEAVY_SHARE` of the pool is left out.  Those are
    variants that loop until the interpreter's fuel runs out, up to 70
    times a median seed's cost; whether a run drew one would move its
    throughput by more than a program change should."""
    costs = pins["seeds"]
    ordered = sorted(range(pins["pool"]), key=lambda seed: (costs[str(seed)][4], seed))
    eligible = ordered[: int(len(ordered) * (1.0 - HEAVY_SHARE))]
    if count > len(eligible):
        raise ValueError(f"{count} seeds asked of a pool of {len(eligible)}")
    chosen = [
        rng.choice(eligible[i * len(eligible) // count : (i + 1) * len(eligible) // count])
        for i in range(count)
    ]
    rng.shuffle(chosen)
    return chosen


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def seed_run_pin(run, probes: int) -> list:
    """The checked part of one seed's pinned outcome: findings, probes,
    finding digest and the variant's transformation count.  The pins file
    appends a fifth field, the seed's cost in ms when it was pinned, used
    only to draw balanced seed lists."""
    return [
        len(run.findings),
        probes,
        _digest(
            [
                [
                    f.target_name,
                    f.signature,
                    f.kind,
                    f.optimized_flow,
                    f.ground_truth_bug,
                    len(f.transformations),
                ]
                for f in run.findings
            ]
        ),
        run.transformation_count,
    ]


class Workload:
    name = ""
    #: Set-up forks worker processes, which the traced run must not
    #: inherit its patches into: such a workload is set up before them.
    forks_workers = False

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke

    def ops(self, nominal_rate: float, *, smoke_ops: int) -> int:
        if self.smoke:
            return smoke_ops
        return max(MIN_TAIL_OPS, round(self.seconds * nominal_rate))

    def make_inputs(self) -> Any:
        raise NotImplementedError

    def setup(self) -> Any:
        raise NotImplementedError

    def teardown(self, program: Any) -> None:
        pass

    def run(self, program: Any, inputs: Any, meter: HostMeter) -> RunResult:
        """Run the ops, timed by *meter*, which also pauses them at chunk
        boundaries for untimed work."""
        raise NotImplementedError

    def check(
        self, program: Any, inputs: Any, result: RunResult
    ) -> tuple[set, list[str]]:
        """``(failed op indices, run-level problems)``; runs before
        :meth:`teardown`, so the program's files still exist."""
        raise NotImplementedError


# -- campaign -----------------------------------------------------------------


class CampaignWorkload(Workload):
    """One op = one seed fuzzed and probed on all nine Table 2 targets
    through both flows, serially, with CLI defaults (probe cache off)."""

    name = "campaign"
    nominal_rate = 11.0  # seeds/s

    def make_inputs(self) -> list[int]:
        count = self.ops(self.nominal_rate, smoke_ops=7)
        return cost_stratified_seeds(random.Random(self.seed), load_pins(), count)

    def setup(self):
        from repro.compilers import make_targets
        from repro.core.fuzzer import FuzzerOptions
        from repro.core.harness import Harness
        from repro.corpus import donor_programs, reference_programs

        return Harness(
            make_targets(),
            reference_programs(),
            donor_programs(),
            FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS),
        )

    def run(self, harness, seeds: list[int], meter: HostMeter) -> RunResult:
        result = RunResult()
        for index, seed in meter.chunked(seeds):
            before = harness.metrics.counter("probes")
            try:
                with meter.timed():
                    run = harness.run_seed(seed)
            except Exception as exc:  # noqa: BLE001 - a raising op fails
                result.failed.add(index)
                result.outputs.append(repr(exc))
                continue
            probes = harness.metrics.counter("probes") - before
            result.probes += probes
            result.outputs.append((run, probes))
        result.take(meter)
        pins = [
            seed_run_pin(*out) if not isinstance(out, str) else out
            for out in result.outputs
        ]
        result.counts = {
            "seeds": len(seeds),
            "findings": sum(p[0] for p in pins if isinstance(p, list)),
            "probes": result.probes,
            "digest": _digest(pins),
        }
        transformations = sum(
            out[0].transformation_count
            for out in result.outputs
            if not isinstance(out, str)
        )
        result.layer = {"core.fuzzer.transformations": transformations}
        return result

    def check(self, harness, seeds: list[int], result: RunResult) -> tuple[set, list[str]]:
        pinned = load_pins()["seeds"]
        oracle = SeedOracle()
        failed: set = set()
        problems: list[str] = []
        for index, (seed, out) in enumerate(zip(seeds, result.outputs)):
            if isinstance(out, str):
                continue
            pin = pinned.get(str(seed))
            if pin is None:
                problems.append(f"seed {seed} has no pinned outcome")
            if pin is None or seed_run_pin(*out) != pin[:4] or not oracle.plausible(*out):
                failed.add(index)
        return failed, problems


class SeedOracle:
    """Checks one seed's outcome against the targets' configuration alone."""

    def __init__(self) -> None:
        from repro.compilers import make_targets
        from repro.compilers.bugs import BUG_CATALOG, BugKind

        self.enabled = {t.name: t.enabled_bugs for t in make_targets()}
        self.miscompiles = {
            name: {b for b in bugs if BUG_CATALOG[b].kind is BugKind.MISCOMPILE}
            for name, bugs in self.enabled.items()
        }

    def plausible(self, run, probes: int) -> bool:
        # Each target is probed once, plus once more through the optimized
        # flow unless the unoptimized probe already found something.
        unoptimized = sum(1 for f in run.findings if not f.optimized_flow)
        if probes != 2 * len(self.enabled) - unoptimized:
            return False
        for finding in run.findings:
            bug = finding.ground_truth_bug
            if bug is None:
                # A wrong result, or a runtime fault (say a loop a
                # miscompile made endless), where no fired bug can be
                # blamed; it must still come from a target that can
                # miscompile at all.
                unattributed = finding.kind == "miscompilation" or (
                    finding.kind == "crash"
                    and finding.signature.startswith("runtime fault:")
                )
                if not (unattributed and self.miscompiles[finding.target_name]):
                    return False
            elif bug not in self.enabled[finding.target_name]:
                return False
        return True


# -- triage -------------------------------------------------------------------


class TriageWorkload(Workload):
    """One op = one finding reduced with the default ``reduce_finding``
    (ddmin + ``CachedReplayer``) on a fresh ``probe_cache=True`` harness;
    the run ends with Figure 6 ``deduplicate`` over the reduced tests."""

    name = "triage"
    nominal_rate = 7.0  # findings/s
    #: Findings kept per (target, signature): enough variety that no one
    #: bug dominates the op list.
    cap = 10
    #: The seed orders the findings within blocks of this many.
    block = 10

    def make_inputs(self):
        """The untimed prologue: a separate (uncached) RQ2 harness fuzzes
        a fixed list of pool seeds until enough capped findings exist, so
        the timed harness's cache starts cold.

        The finding list is the same for every seed; the seed shuffles the
        order within consecutive blocks of :attr:`block` findings, and so
        what the shared probe cache already holds when each one runs.
        Reduction cost differs several-fold between findings, and with
        the cache's warmth, so a different list per seed, or a shuffle of
        the whole list, would make runs differ by content more than by
        program speed."""
        from repro.compilers import NON_GPU_TARGET_NAMES, make_target
        from repro.core.fuzzer import FuzzerOptions
        from repro.core.harness import Harness
        from repro.corpus import donor_programs, reference_programs

        count = self.ops(self.nominal_rate, smoke_ops=4)
        prologue = Harness(
            [make_target(name) for name in NON_GPU_TARGET_NAMES],
            reference_programs(),
            donor_programs(),
            FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS),
        )
        seeds = list(range(SEED_POOL))
        random.Random(0).shuffle(seeds)
        kept: dict[tuple[str, str], int] = {}
        findings = []
        for seed in seeds:
            for finding in prologue.run_seed(seed).findings:
                key = (finding.target_name, finding.signature)
                if kept.get(key, 0) < self.cap:
                    kept[key] = kept.get(key, 0) + 1
                    findings.append(finding)
            if len(findings) >= count:
                break
        rng = random.Random(self.seed)
        ordered = []
        for start in range(0, count, self.block):
            block = findings[start : min(start + self.block, count)]
            rng.shuffle(block)
            ordered.extend(block)
        return ordered, prologue

    def setup(self):
        from repro.compilers import NON_GPU_TARGET_NAMES, make_target
        from repro.core.fuzzer import FuzzerOptions
        from repro.core.harness import Harness
        from repro.corpus import donor_programs, reference_programs

        return Harness(
            [make_target(name) for name in NON_GPU_TARGET_NAMES],
            reference_programs(),
            donor_programs(),
            FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS),
            probe_cache=True,
        )

    def run(self, harness, inputs, meter: HostMeter) -> RunResult:
        from repro.core import dedup as dedup_mod
        from repro.core.dedup import ReducedTest

        findings, _prologue = inputs
        result = RunResult()
        stats = harness.probe_cache.stats
        probes_before = stats.probes
        tests = []
        tests_run = removed = replays = prefix_hits = 0
        for index, finding in meter.chunked(findings):
            try:
                with meter.timed():
                    reduction = harness.reduce_finding(finding)
            except Exception as exc:  # noqa: BLE001 - a raising op fails
                result.failed.add(index)
                result.outputs.append(repr(exc))
                continue
            if reduction.degraded is not None or reduction.timed_out:
                result.failed.add(index)
            result.outputs.append(reduction)
            tests_run += reduction.tests_run
            removed += reduction.chunks_removed
            replays += reduction.replay_stats.replays
            prefix_hits += reduction.replay_stats.prefix_hits
            tests.append(
                ReducedTest.from_reduction(f"t{index:04d}", finding, reduction)
            )
        with meter.timed(op=False):
            # Looked up on the module so the traced run sees its wrapper.
            picks = dedup_mod.deduplicate(tests)
        result.take(meter)
        result.probes = stats.probes - probes_before
        result.outputs.append(picks)
        lengths = [
            len(r.transformations) if not isinstance(r, str) else -1
            for r in result.outputs[:-1]
        ]
        result.counts = {
            "findings": len(findings),
            "tests_run": tests_run,
            "chunks_removed": removed,
            "probes": result.probes,
            "reduced_lengths": _digest(lengths),
            "picks": [t.test_id for t in picks.to_investigate],
        }
        result.layer = {
            "core.reducer.tests_run": tests_run,
            "core.reducer.accept_ratio": removed / tests_run if tests_run else 0.0,
            "perf.replay_cache.prefix_hit_ratio": (
                prefix_hits / replays if replays else 0.0
            ),
        }
        for layer in ("outcome", "stage", "exec"):
            hits = getattr(stats, f"{layer}_hits")
            misses = getattr(stats, f"{layer}_misses")
            result.layer[f"perf.probe_cache.{layer}_hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        return result

    def check(self, harness, inputs, result: RunResult) -> tuple[set, list[str]]:
        findings, prologue = inputs
        failed: set = set()
        problems: list[str] = []
        for index, (finding, reduction) in enumerate(
            zip(findings, result.outputs[:-1])
        ):
            if isinstance(reduction, str):
                continue
            # Re-probed once through the prologue's uncached harness: full
            # replay from the original, plain target, no memo.
            still = prologue.make_interestingness_test(finding)(
                reduction.transformations
            )
            if not still or len(reduction.transformations) > len(
                finding.transformations
            ):
                failed.add(index)
        picks = result.outputs[-1].to_investigate
        for pool in (False, True):
            owner: dict[str, str] = {}
            for test in picks:
                if test.nondeterministic != pool:
                    continue
                if not test.types:
                    problems.append(f"pick {test.test_id} has no types")
                for type_name in test.types:
                    if type_name in owner:
                        problems.append(
                            f"picks {owner[type_name]} and {test.test_id} "
                            f"share {type_name}"
                        )
                    owner[type_name] = test.test_id
        return failed, problems


# -- service ------------------------------------------------------------------


class ServiceWorkload(Workload):
    """One op = one small campaign (``reduce=1``) from ``submit`` to DONE
    through an in-process ``CampaignService`` with the deployed
    ``ServiceConfig`` but one fleet worker, and its store in a temp dir; a
    closed loop of two tenants, each keeping one campaign in flight."""

    name = "service"
    forks_workers = True
    nominal_rate = 4.0  # campaigns/s
    seeds_per_campaign = 2
    tenants = ("alice", "bob")

    def make_inputs(self) -> list[tuple[int, ...]]:
        count = self.ops(self.nominal_rate, smoke_ops=3)
        rng = random.Random(self.seed)
        pins = load_pins()
        # The campaign pool's costliest seeds also make the costliest
        # reductions: one fuel-exhausting finding held a run's finalize
        # for 30 s and tripled its wall time.
        seeds = cost_stratified_seeds(rng, pins, count * self.seeds_per_campaign)
        # Dealt out cheapest first, in serpentine order, so every campaign
        # gets about the same seed cost and the latency median does not
        # hang on how a run's seeds happened to pair up.
        seeds.sort(key=lambda seed: (pins["seeds"][str(seed)][4], seed))
        campaigns: list[list[int]] = [[] for _ in range(count)]
        for number, seed in enumerate(seeds):
            turn, slot = divmod(number, count)
            campaigns[slot if turn % 2 == 0 else count - 1 - slot].append(seed)
        rng.shuffle(campaigns)
        return [tuple(campaign) for campaign in campaigns]

    def setup(self):
        from repro.compilers import make_targets
        from repro.core.fuzzer import FuzzerOptions
        from repro.perf.parallel import CampaignSpec
        from repro.service import (
            CampaignManifest,
            CampaignService,
            CampaignStore,
            ServiceConfig,
        )

        spec = CampaignSpec(
            "core",
            tuple(target.name for target in make_targets()),
            options=FuzzerOptions(max_transformations=MAX_TRANSFORMATIONS),
        )
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="service-store-", dir=OUT_DIR))
        service = CampaignService(CampaignStore(root), ServiceConfig(workers=1))
        service.start()
        return service, spec, CampaignManifest

    def teardown(self, program) -> None:
        service = program[0]
        try:
            service.drain(max_seconds=30.0)
        finally:
            service.shutdown()
            shutil.rmtree(service.store.root, ignore_errors=True)

    def run(self, program, campaigns: list[tuple[int, ...]], meter: HostMeter) -> RunResult:
        """The closed loop runs chunk by chunk: at each chunk boundary
        both tenants' campaigns have finished, and the meter's pause (a
        set-up sample) runs while the service is idle.

        The fleet worker inherits the benchmark's CPU pin, so the whole
        service runs on the CPU the meter reads.  Its ops overlap, so they
        are timed on the meter's tick clock, ticked at every completion
        and at least every ``TICK_SECONDS``."""
        service, spec, manifest_cls = program
        store = service.store
        fleet = service.fleet
        result = RunResult()
        terminal = {"DONE", "FAILED", "DEGRADED", "QUARANTINED"}
        pending: list[tuple[int, tuple[int, ...]]] = []
        #: campaign id -> (op index, tenant, tick clock at submit)
        inflight: dict[str, tuple[int, str, tuple[float, float]]] = {}
        ids: list[str] = [""] * len(campaigns)
        latencies = [0.0] * len(campaigns)
        raw_latencies = [0.0] * len(campaigns)
        states: dict[int, str] = {}

        # Each fleet ``done`` event carries its batch's probe count.
        poll = fleet.poll  # the traced wrapper, when tracing

        def counting_poll(timeout: float) -> list[tuple]:
            events = poll(timeout)
            for event in events:
                if event[0] == "msg" and event[2][0] == "done":
                    result.probes += int(event[2][3])
            return events

        def submit(tenant: str, now: tuple[float, float]) -> None:
            index, seeds = pending.pop()
            campaign_id = f"{tenant}-{index:04d}"
            ids[index] = campaign_id
            rejection = service.submit(
                manifest_cls(
                    campaign_id=campaign_id,
                    spec=spec,
                    seeds=seeds,
                    tenant=tenant,
                    reduce=1,
                )
            )
            if rejection is not None:
                raise RuntimeError(f"submission rejected: {rejection.reason}")
            inflight[campaign_id] = (index, tenant, now)

        fleet.poll = counting_poll
        try:
            for number, chunk in enumerate(chunks(list(enumerate(campaigns)))):
                if number:
                    meter.pause()
                now = meter.tick(resume=True)
                pending[:] = reversed(chunk)
                for tenant in self.tenants:
                    if pending:
                        submit(tenant, now)
                while inflight:
                    service.step()
                    finished = [
                        (campaign_id, state)
                        for campaign_id, state in (
                            (campaign_id, store.state(campaign_id))
                            for campaign_id in inflight
                        )
                        if state in terminal
                    ]
                    if not finished and meter.since_tick() < TICK_SECONDS:
                        continue
                    now = meter.tick()
                    for campaign_id, state in finished:
                        index, tenant, submitted = inflight.pop(campaign_id)
                        latencies[index] = now[0] - submitted[0]
                        raw_latencies[index] = now[1] - submitted[1]
                        states[index] = state
                        if pending:
                            submit(tenant, now)
        finally:
            del fleet.poll
        result.take(meter)
        result.latencies = latencies
        result.raw_latencies = raw_latencies
        result.failed = {i for i, state in states.items() if state != "DONE"}
        result.outputs = [(ids[i], states[i]) for i in range(len(campaigns))]
        summary = []
        for campaign_id, _state in result.outputs:
            payload = store.read_result(campaign_id) or {}
            summary.append(
                [
                    len(payload.get("findings", ())),
                    [r["reduced_length"] for r in payload.get("reductions", ())],
                    payload.get("dedup", {}).get("reports"),
                ]
            )
        result.counts = {
            "campaigns": len(campaigns),
            "probes": result.probes,
            "findings": sum(s[0] for s in summary),
            "results": _digest(summary),
        }
        return result

    def check(self, program, campaigns, result: RunResult) -> tuple[set, list[str]]:
        """Every campaign ended DONE, and its ``result.json`` findings equal
        the seed records in its journal — both files parsed here."""
        failed: set = set()
        root = program[0].store.root
        for index, ((campaign_id, state), seeds) in enumerate(
            zip(result.outputs, campaigns)
        ):
            directory = root / "campaigns" / campaign_id
            try:
                records = {}
                for line in (directory / "journal.jsonl").read_text().splitlines():
                    record = json.loads(line)
                    record.pop("crc", None)
                    records[record["seed"]] = record
                payload = json.loads((directory / "result.json").read_text())
                expected = [
                    {"seed": seed, "program": records[seed]["program"], **entry}
                    for seed in seeds
                    for entry in records[seed]["findings"]
                ]
                ok = state == "DONE" and payload["findings"] == expected
            except (OSError, KeyError, ValueError):
                ok = False
            if not ok:
                failed.add(index)
        return failed, []


WORKLOADS = {
    workload.name: workload
    for workload in (
        CampaignWorkload,
        TriageWorkload,
        ServiceWorkload,
    )
}
