"""Perf trajectory benchmark: parallel campaigns and cached reduction.

Times (1) a fuzzing campaign over the nine Table 2 targets, serial vs
sharded across worker processes, (2) the RQ2 reduction workload
(non-GPU targets), with the pay-full-price replayer vs the prefix-caching
``CachedReplayer``, and (3) cross-finding speculative parallel reduction
(``Harness.reduce_all``) vs the serial reduction loop, with compiler-like
per-probe latency.  Every comparison also *verifies* that the fast path is
byte-identical to the slow one — same findings in the same order, same
1-minimal sequences.

Results are written as machine-readable JSON (``BENCH_perf.json`` at the
repo root by default) so the perf trajectory can be tracked across PRs:

    PYTHONPATH=src python benchmarks/bench_perf_campaign.py --seeds 20

Note: parallel speedup is bounded by the machine's core count; the JSON
records ``cpu_count`` so numbers from different machines are comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import format_table  # noqa: E402

from repro.compilers import NON_GPU_TARGET_NAMES, make_target, make_targets  # noqa: E402
from repro.core.fuzzer import FuzzerOptions  # noqa: E402
from repro.core.harness import Harness  # noqa: E402
from repro.core.reducer import reduce_transformations  # noqa: E402
from repro.core.transformation import sequence_to_json  # noqa: E402
from repro.corpus import donor_programs, reference_programs  # noqa: E402
from repro.perf import default_worker_count  # noqa: E402


def _finding_identity(finding) -> tuple:
    return (
        finding.seed,
        finding.target_name,
        finding.signature,
        finding.kind,
        finding.optimized_flow,
        json.dumps(sequence_to_json(finding.transformations)),
    )


def bench_campaign(seeds: int, workers: int, max_transformations: int) -> dict:
    harness = Harness(
        make_targets(),
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=max_transformations),
    )
    started = time.perf_counter()
    serial = harness.run_campaign(range(seeds))
    serial_seconds = time.perf_counter() - started

    # degrade=False: this section tracks the sharded path's raw cost across
    # PRs; the auto-degrade heuristic is measured by bench_probe_throughput.
    started = time.perf_counter()
    parallel = harness.run_campaign(range(seeds), workers=workers, degrade=False)
    parallel_seconds = time.perf_counter() - started

    identical = (
        [_finding_identity(f) for f in serial.findings]
        == [_finding_identity(f) for f in parallel.findings]
        and [(r.program_name, r.seed, r.transformation_count) for r in serial.seed_runs]
        == [(r.program_name, r.seed, r.transformation_count) for r in parallel.seed_runs]
    )
    return {
        "seeds": seeds,
        "targets": len(harness.targets),
        "workers": workers,
        "findings": len(serial.findings),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 3)
        if parallel_seconds
        else None,
        "identical": identical,
    }


def bench_supervision(seeds: int, max_transformations: int) -> dict:
    """Supervised (child-process) probes vs in-process probes.

    Supervision is the robustness layer's fault isolation (hangs -> timeout
    findings, OOMs -> resource findings, hard crashes survived); this measures
    what that isolation costs on a fault-free campaign and verifies the
    supervised findings are identical to the in-process ones.
    """
    from repro.robustness import RobustnessConfig

    options = FuzzerOptions(max_transformations=max_transformations)
    in_process = Harness(
        make_targets(), reference_programs(), donor_programs(), options
    )
    started = time.perf_counter()
    plain = in_process.run_campaign(range(seeds))
    in_process_seconds = time.perf_counter() - started

    supervised_harness = Harness(
        make_targets(),
        reference_programs(),
        donor_programs(),
        options,
        robustness=RobustnessConfig(probe_timeout=300.0),
    )
    try:
        started = time.perf_counter()
        supervised = supervised_harness.run_campaign(range(seeds))
        supervised_seconds = time.perf_counter() - started
    finally:
        supervised_harness.close()

    identical = [_finding_identity(f) for f in plain.findings] == [
        _finding_identity(f) for f in supervised.findings
    ]
    return {
        "seeds": seeds,
        "findings": len(plain.findings),
        "in_process_seconds": round(in_process_seconds, 3),
        "supervised_seconds": round(supervised_seconds, 3),
        "overhead": round(supervised_seconds / in_process_seconds, 3)
        if in_process_seconds
        else None,
        "identical": identical,
    }


def bench_tracing(seeds: int, max_transformations: int) -> dict:
    """Traced vs untraced campaign: what the observability layer costs.

    Tracing is observation-only, so besides timing the overhead this
    verifies the traced findings are identical to the untraced ones and
    that the trace's own event counts agree with the campaign.
    """
    import tempfile

    from repro.observability import read_trace, summarize

    options = FuzzerOptions(max_transformations=max_transformations)
    untraced_harness = Harness(
        make_targets(), reference_programs(), donor_programs(), options
    )
    started = time.perf_counter()
    untraced = untraced_harness.run_campaign(range(seeds))
    untraced_seconds = time.perf_counter() - started

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.jsonl"
        traced_harness = Harness(
            make_targets(),
            reference_programs(),
            donor_programs(),
            options,
            tracer=trace_path,
        )
        started = time.perf_counter()
        traced = traced_harness.run_campaign(range(seeds))
        traced_seconds = time.perf_counter() - started
        traced_harness.tracer.close()
        summary = summarize(read_trace(trace_path))
        events = summary["events"]
        trace_consistent = (
            summary["seeds"] == seeds
            and summary["findings"] == len(traced.findings)
            and summary["probes"] == traced_harness.metrics.counter("probes")
        )

    identical = [_finding_identity(f) for f in untraced.findings] == [
        _finding_identity(f) for f in traced.findings
    ]
    return {
        "seeds": seeds,
        "findings": len(untraced.findings),
        "events": events,
        "untraced_seconds": round(untraced_seconds, 3),
        "traced_seconds": round(traced_seconds, 3),
        "overhead": round(traced_seconds / untraced_seconds, 3)
        if untraced_seconds
        else None,
        "trace_consistent": trace_consistent,
        "identical": identical,
    }


def bench_reduction(seeds: int, max_transformations: int, cap_per_signature: int) -> dict:
    """Cached vs uncached reduction on the RQ2 workload (non-GPU targets).

    The harness probes uncached, so both arms pay the same per-probe cost
    and the comparison isolates the replay cache."""
    harness = Harness(
        [make_target(name) for name in NON_GPU_TARGET_NAMES],
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=max_transformations),
        probe_cache=False,
    )
    campaign = harness.run_campaign(range(seeds))
    per_signature: dict[tuple[str, str], int] = {}
    findings = []
    for finding in campaign.findings:
        key = (finding.target_name, finding.signature)
        if per_signature.get(key, 0) >= cap_per_signature:
            continue
        per_signature[key] = per_signature.get(key, 0) + 1
        findings.append(finding)

    uncached_seconds = cached_seconds = 0.0
    uncached_replays = 0
    cached = {
        "replays": 0,
        "scratch_replays": 0,
        "prefix_hits": 0,
        "memo_hits": 0,
        "transformations_applied": 0,
        "transformations_saved": 0,
    }
    identical = True
    for finding in findings:
        started = time.perf_counter()
        plain = reduce_transformations(
            finding.transformations, harness.make_interestingness_test(finding)
        )
        uncached_seconds += time.perf_counter() - started
        # Every uncached interestingness test replays its candidate from
        # the original module, so tests_run counts full replays exactly.
        uncached_replays += plain.tests_run

        started = time.perf_counter()
        fast = harness.reduce_finding(finding)
        cached_seconds += time.perf_counter() - started
        stats = fast.replay_stats
        for field in cached:
            cached[field] += getattr(stats, field)
        identical = identical and sequence_to_json(
            plain.transformations
        ) == sequence_to_json(fast.transformations)

    applied = cached["transformations_applied"]
    saved = cached["transformations_saved"]
    return {
        "seeds": seeds,
        "reductions": len(findings),
        "uncached_replays": uncached_replays,
        "uncached_seconds": round(uncached_seconds, 3),
        "cached_seconds": round(cached_seconds, 3),
        "cached": cached,
        "replay_reduction": round(1 - cached["replays"] / uncached_replays, 3)
        if uncached_replays
        else None,
        "scratch_replay_reduction": round(
            1 - cached["scratch_replays"] / uncached_replays, 3
        )
        if uncached_replays
        else None,
        "application_reduction": round(saved / (applied + saved), 3)
        if applied + saved
        else None,
        "reduction_speedup": round(uncached_seconds / cached_seconds, 3)
        if cached_seconds
        else None,
        "identical": identical,
    }


def bench_hardened_reduction(
    seeds: int, max_transformations: int, cap_per_signature: int
) -> dict:
    """Fault-tolerant (supervised + voted) reduction vs the raw reducer.

    On a deterministic, fault-free target the flake-hardened pipeline must
    be invisible in the *result* (same 1-minimal sequence, same logical
    tests) and cheap in *probes*: acceptance confirmation votes are the only
    extra work, bounded here at < 1.5x the raw reducer's tests-run.
    """
    from repro.reduce import ReductionConfig
    from repro.robustness import ReductionPolicy

    harness = Harness(
        [make_target(name) for name in NON_GPU_TARGET_NAMES],
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=max_transformations),
    )
    campaign = harness.run_campaign(range(seeds))
    per_signature: dict[tuple[str, str], int] = {}
    findings = []
    for finding in campaign.findings:
        key = (finding.target_name, finding.signature)
        if per_signature.get(key, 0) >= cap_per_signature:
            continue
        per_signature[key] = per_signature.get(key, 0) + 1
        findings.append(finding)

    raw_seconds = hardened_seconds = 0.0
    raw_tests = hardened_tests = hardened_probes = 0
    identical = True
    degraded = 0
    for finding in findings:
        started = time.perf_counter()
        raw = harness.reduce_finding(finding)
        raw_seconds += time.perf_counter() - started
        raw_tests += raw.tests_run

        started = time.perf_counter()
        hardened = harness.reduce_finding(
            finding, ReductionConfig(policy=ReductionPolicy())
        )
        hardened_seconds += time.perf_counter() - started
        hardened_tests += hardened.tests_run
        hardened_probes += hardened.stability["probes"]
        if hardened.degraded is not None:
            degraded += 1
        identical = identical and sequence_to_json(
            raw.transformations
        ) == sequence_to_json(hardened.transformations)

    probe_overhead = round(hardened_probes / raw_tests, 3) if raw_tests else None
    return {
        "seeds": seeds,
        "reductions": len(findings),
        "raw_tests_run": raw_tests,
        "hardened_tests_run": hardened_tests,
        "hardened_probes": hardened_probes,
        "probe_overhead": probe_overhead,
        "raw_seconds": round(raw_seconds, 3),
        "hardened_seconds": round(hardened_seconds, 3),
        "degraded": degraded,
        "identical": identical,
        # The CI gate: voting must stay under 1.5x the raw tests-run, the
        # results must match, and a fault-free workload must never degrade.
        "within_bound": bool(
            identical
            and degraded == 0
            and probe_overhead is not None
            and probe_overhead < 1.5
        ),
    }


def bench_pass_pipeline(
    seeds: int, max_transformations: int, cap_per_signature: int
) -> dict:
    """The creduce-style pass pipeline vs the pre-pipeline chain.

    The chain is what the harness did before the scheduler existed: ddmin,
    then the payload post-pass (``shrink_add_function_payloads``) on its
    result, then a standalone spirv-reduce cleanup.  The pipeline must never leave a
    *larger* result (sequence or module) and must stay within 1.25x the
    chain's probe count, and its result must be worker-count invariant
    (K=1 vs K=2 byte-identical).
    """
    from repro.core.reducer import shrink_add_function_payloads
    from repro.perf.replay_cache import CachedReplayer
    from repro.reduce import DEFAULT_PASS_NAMES, ReductionConfig

    harness = Harness(
        [make_target(name) for name in NON_GPU_TARGET_NAMES],
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=max_transformations),
    )
    campaign = harness.run_campaign(range(seeds))
    per_signature: dict[tuple[str, str], int] = {}
    findings = []
    for finding in campaign.findings:
        key = (finding.target_name, finding.signature)
        if per_signature.get(key, 0) >= cap_per_signature:
            continue
        per_signature[key] = per_signature.get(key, 0) + 1
        findings.append(finding)

    chain_seconds = pipeline_seconds = 0.0
    chain_probes = pipeline_probes = 0
    chain_length = pipeline_length = 0
    chain_instructions = pipeline_instructions = 0
    identical = True
    for finding in findings:
        started = time.perf_counter()
        reduced = harness.reduce_finding(finding)
        chain = shrink_add_function_payloads(
            reduced.transformations,
            harness.make_interestingness_test(
                finding, replayer=CachedReplayer(finding.original, finding.inputs)
            ),
        )
        cleaned = harness.spirv_cleanup(finding, chain.transformations)
        chain_seconds += time.perf_counter() - started
        chain_probes += reduced.tests_run + chain.tests_run + cleaned.tests_run
        chain_length += len(chain.transformations)
        chain_instructions += sum(1 for _ in cleaned.module.all_instructions())

        started = time.perf_counter()
        piped = harness.reduce_finding(
            finding, ReductionConfig(passes=DEFAULT_PASS_NAMES)
        )
        pipeline_seconds += time.perf_counter() - started
        pipeline_probes += piped.tests_run
        pipeline_length += len(piped.transformations)
        if piped.cleaned_module is not None:
            pipeline_instructions += sum(
                1 for _ in piped.cleaned_module.all_instructions()
            )

        parallel = harness.reduce_finding(
            finding, ReductionConfig(passes=DEFAULT_PASS_NAMES, workers=2)
        )
        identical = identical and (
            sequence_to_json(parallel.transformations)
            == sequence_to_json(piped.transformations)
            and parallel.tests_run == piped.tests_run
            and parallel.history == piped.history
        )

    probe_ratio = (
        round(pipeline_probes / chain_probes, 3) if chain_probes else None
    )
    return {
        "seeds": seeds,
        "reductions": len(findings),
        "chain_probes": chain_probes,
        "pipeline_probes": pipeline_probes,
        "probe_ratio": probe_ratio,
        "chain_final_length": chain_length,
        "pipeline_final_length": pipeline_length,
        "chain_final_instructions": chain_instructions,
        "pipeline_final_instructions": pipeline_instructions,
        "chain_seconds": round(chain_seconds, 3),
        "pipeline_seconds": round(pipeline_seconds, 3),
        "identical": identical,
        # The CI gate: the pipeline never leaves a larger result, costs at
        # most 1.25x the chain's probes, and is worker-count invariant.
        "within_bound": bool(
            identical
            and pipeline_length <= chain_length
            and pipeline_instructions <= chain_instructions
            and probe_ratio is not None
            and probe_ratio <= 1.25
        ),
    }


def bench_parallel_reduction(
    seeds: int,
    max_transformations: int,
    workers: int,
    probe_delay: float,
    max_findings: int,
) -> dict:
    """Cross-finding speculative reduction (``reduce_all``) vs the serial
    ``reduce_finding`` loop.

    Probes sleep *probe_delay* seconds to model a real compiler invocation —
    the paper's setting, where a probe is a compile+run, not a microsecond
    of in-process Python.  Without the delay this workload measures IPC
    round-trips, not reduction.  The fleet must be byte-identical to the
    serial loop; ``within_bound`` is the CI gate: a >= 1.5x speedup at
    *workers* workers on multi-core machines, or <= 1.15x single-core
    overhead (speculation waste is bounded by the adaptive window, and
    sleeping probes overlap even on one core).
    """
    from repro.compilers.wrapper import DelayedTarget
    from repro.reduce import ReductionConfig

    options = FuzzerOptions(max_transformations=max_transformations)
    harvest = Harness(
        [make_target(name) for name in NON_GPU_TARGET_NAMES],
        reference_programs(),
        donor_programs(),
        options,
    )
    campaign = harvest.run_campaign(range(seeds))
    per_signature: set[tuple[str, str]] = set()
    findings = []
    for finding in campaign.findings:
        key = (finding.target_name, finding.signature)
        if key in per_signature:
            continue
        per_signature.add(key)
        findings.append(finding)
        if len(findings) >= max_findings:
            break

    delayed = Harness(
        [
            DelayedTarget(make_target(name), probe_delay)
            for name in NON_GPU_TARGET_NAMES
        ],
        reference_programs(),
        donor_programs(),
        options,
    )
    started = time.perf_counter()
    serial = [delayed.reduce_finding(finding) for finding in findings]
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    fleet = delayed.reduce_all(findings, ReductionConfig(workers=workers))
    parallel_seconds = time.perf_counter() - started

    identical = all(
        one.to_json() == other.to_json() for one, other in zip(fleet, serial)
    ) and len(fleet) == len(serial)
    dispatched = sum(r.speculation.dispatched for r in fleet if r.speculation)
    committed = sum(r.speculation.committed for r in fleet if r.speculation)
    wasted = sum(r.speculation.wasted for r in fleet if r.speculation)
    recoveries = sum(
        r.speculation.worker_recoveries for r in fleet if r.speculation
    )
    cpu_count = os.cpu_count() or 1
    speedup = serial_seconds / parallel_seconds if parallel_seconds else None
    overhead = parallel_seconds / serial_seconds if serial_seconds else None
    if cpu_count > 1:
        within_bound = bool(identical and speedup is not None and speedup >= 1.5)
    else:
        within_bound = bool(identical and overhead is not None and overhead <= 1.15)
    return {
        "seeds": seeds,
        "reductions": len(findings),
        "workers": workers,
        "cpu_count": cpu_count,
        "probe_delay": probe_delay,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 3) if speedup is not None else None,
        "overhead": round(overhead, 3) if overhead is not None else None,
        "dispatched": dispatched,
        "committed": committed,
        "wasted": wasted,
        "wasted_percent": round(100.0 * wasted / dispatched, 1) if dispatched else 0.0,
        "probes_per_second": round(dispatched / parallel_seconds, 1)
        if parallel_seconds
        else None,
        "worker_recoveries": recoveries,
        "identical": identical,
        "within_bound": within_bound,
    }


#: Timed trials per arm of the probe-throughput cache gate.
PROBE_TRIALS = 5


def bench_probe_throughput(
    seeds: int,
    workers: int,
    max_transformations: int,
    max_findings: int,
) -> dict:
    """The probe-throughput engine: content-hash compile caching and
    campaign auto-degrade.

    The workload is the full triage loop the probe engine exists to speed
    up: a campaign, the reduction of its findings, a cross-target dedup
    sweep of each reduced variant (both flows, repeated for stability
    classification — the paper's deduplication story), and a regression
    re-run of the whole campaign (same seeds, as a nightly CI re-run would).
    The sweep and the re-run are where probe content genuinely recurs, so
    they are where the content-hash cache pays; the campaign adds
    cross-target stage sharing and the reduction is the cache's worst case
    (every candidate is new content), keeping the measurement honest.
    Two comparisons, both verified byte-identical:

    * cached (the default harness) vs uncached (``probe_cache=False``)
      probes/sec over the median of ``PROBE_TRIALS`` interleaved trials per
      arm — CI gate: >= 1.5x;
    * ``workers=N`` vs serial with auto-degrade enabled — CI gate: the
      parallel path must never *lose* (>= 0.95x serial), which on one CPU
      means the degrade heuristic must fire.
    """
    options = FuzzerOptions(max_transformations=max_transformations)

    def build(**kwargs):
        return Harness(
            make_targets(),
            reference_programs(),
            donor_programs(),
            options,
            **kwargs,
        )

    def pick_findings(campaign):
        seen: set[tuple[str, str]] = set()
        findings = []
        for finding in campaign.findings:
            key = (finding.target_name, finding.signature)
            if key in seen:
                continue
            seen.add(key)
            findings.append(finding)
            if len(findings) >= max_findings:
                break
        return findings

    def triage_sweep(harness, reductions, repeats=5):
        """Cross-target dedup of each reduced variant: probe it (and its
        optimized form) on every target, ``repeats`` times over for
        stability classification.  Returns the outcome kinds — part of the
        byte-identity check."""
        from repro.core.reducer import replay

        kinds = []
        for finding, reduction in reductions:
            program = next(
                p
                for p in harness.references
                if p.name == finding.program_name
            )
            ctx = replay(
                program.module, program.inputs, reduction.transformations
            )
            optimized = harness._optimize(ctx.module)
            for _ in range(repeats):
                for target in harness.targets:
                    one = harness._probe(target, ctx.module, ctx.inputs)
                    two = harness._probe(target, optimized, ctx.inputs)
                    kinds.append((target.name, one.kind.value, two.kind.value))
        return kinds

    def run_workload(harness):
        started = time.perf_counter()
        campaign = harness.run_campaign(range(seeds))
        reductions = [
            (finding, harness.reduce_finding(finding))
            for finding in pick_findings(campaign)
        ]
        sweep = triage_sweep(harness, reductions)
        rerun = harness.run_campaign(range(seeds))
        seconds = time.perf_counter() - started
        probes = harness.metrics.counter("probes") + sum(
            r.tests_run for _, r in reductions
        )
        identity = (
            [_finding_identity(f) for f in campaign.findings],
            [sequence_to_json(r.transformations) for _, r in reductions],
            [(r.program_name, r.seed, r.transformation_count) for r in campaign.seed_runs],
            sweep,
            [_finding_identity(f) for f in rerun.findings],
        )
        return seconds, probes, identity

    # PROBE_TRIALS interleaved trials per arm (fresh harness per trial, the
    # arm order alternating so slow clock drift under sustained load hits
    # both arms alike), gated on the ratio of the medians: the gate sits
    # close enough to the real ratio that best-of-two flaked on a small box.
    # The cached arm is the default harness, as every caller builds it.
    arms = {"uncached": [], "cached": []}
    identities = {"uncached": [], "cached": []}
    probes = {}
    cached_harness = None
    for trial in range(PROBE_TRIALS):
        order = ("uncached", "cached") if trial % 2 == 0 else ("cached", "uncached")
        for arm in order:
            harness = build(probe_cache=arm == "cached")
            if arm == "cached" and cached_harness is None:
                cached_harness = harness
            seconds, arm_probes, identity = run_workload(harness)
            arms[arm].append(seconds)
            identities[arm].append(identity)
            probes.setdefault(arm, arm_probes)
    uncached_seconds = statistics.median(arms["uncached"])
    cached_seconds = statistics.median(arms["cached"])
    uncached_probes, cached_probes = probes["uncached"], probes["cached"]
    cache_stats = cached_harness.probe_cache.stats.to_json()

    uncached_pps = uncached_probes / uncached_seconds if uncached_seconds else 0.0
    cached_pps = cached_probes / cached_seconds if cached_seconds else 0.0
    cache_speedup = cached_pps / uncached_pps if uncached_pps else None
    plain_identity = identities["uncached"][0]
    cached_identical = all(
        identity == plain_identity
        for identity in identities["uncached"] + identities["cached"]
    )

    # Parallel campaign with auto-degrade: must never lose to serial.
    def timed_campaign(**kwargs):
        harness = build()
        started = time.perf_counter()
        campaign = harness.run_campaign(range(seeds), **kwargs)
        return time.perf_counter() - started, campaign, harness

    # Interleave the trials (s,p,p,s): the box's clock drifts slowly under
    # sustained load, so back-to-back arms see different baselines.
    serial_seconds, serial_campaign, _ = timed_campaign()
    parallel_seconds, parallel_campaign, parallel_harness = timed_campaign(
        workers=workers
    )
    parallel_seconds = min(
        parallel_seconds, timed_campaign(workers=workers)[0]
    )
    serial_seconds = min(serial_seconds, timed_campaign()[0])
    parallel_identical = [
        _finding_identity(f) for f in parallel_campaign.findings
    ] == [_finding_identity(f) for f in serial_campaign.findings]
    parallel_ratio = (
        serial_seconds / parallel_seconds if parallel_seconds else None
    )
    parallel_degraded = parallel_harness.metrics.counter("parallel.degraded") > 0

    identical = cached_identical and parallel_identical
    within_bound = bool(
        identical
        and cache_speedup is not None
        and cache_speedup >= 1.5
        and parallel_ratio is not None
        and parallel_ratio >= 0.95
    )
    return {
        "seeds": seeds,
        "reductions": max_findings,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "uncached_probes": uncached_probes,
        "uncached_seconds": round(uncached_seconds, 3),
        "uncached_probes_per_second": round(uncached_pps, 1),
        "uncached_trial_seconds": [round(t, 3) for t in arms["uncached"]],
        "cached_probes": cached_probes,
        "cached_seconds": round(cached_seconds, 3),
        "cached_probes_per_second": round(cached_pps, 1),
        "cached_trial_seconds": [round(t, 3) for t in arms["cached"]],
        "cache_speedup": round(cache_speedup, 3) if cache_speedup else None,
        "cache_stats": cache_stats,
        "cached_identical": cached_identical,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "parallel_ratio": round(parallel_ratio, 3) if parallel_ratio else None,
        "parallel_degraded": parallel_degraded,
        "parallel_identical": parallel_identical,
        "identical": identical,
        "within_bound": within_bound,
    }


def bench_service(seeds: int, max_transformations: int) -> dict:
    """The campaign service vs a direct ``run_campaign`` on the same seeds.

    The service adds a durable store (fsync-per-record journals and state
    transitions), a fair-share scheduler, lease supervision, and a fleet
    worker pipe between the harness and the caller.  This measures what all
    of that costs on the happy path: the same seed set, split across two
    tenants, run through a one-worker service against one in-process
    campaign.  Identity is checked at the journal-record level — every
    service-journaled seed record must equal ``run_to_record`` of the
    direct run — and ``within_bound`` is the CI gate: service-mode
    throughput must stay >= 0.9x the direct run on multi-core machines,
    where the parent's durable bookkeeping (fsync-per-record journaling,
    state transitions, finalization) overlaps the worker.  On a single
    core nothing overlaps — every fsync serializes with the lone worker —
    so the floor there is 0.7x (same CPU-aware-bound pattern as the
    parallel-reduction section).
    """
    import tempfile

    from repro.perf.parallel import CampaignSpec
    from repro.robustness import CampaignJournal
    from repro.robustness.journal import run_to_record
    from repro.service import (
        CampaignManifest,
        CampaignService,
        CampaignStore,
        ServiceConfig,
    )

    spec = CampaignSpec(
        "core",
        tuple(target.name for target in make_targets()),
        options=FuzzerOptions(max_transformations=max_transformations),
    )
    half = seeds // 2

    def direct_run():
        # The build is inside the timer: the service's workers build their
        # harnesses inside the timed region too.
        started = time.perf_counter()
        harness = spec.build()
        campaign = harness.run_campaign(range(seeds))
        elapsed = time.perf_counter() - started
        return elapsed, {run.seed: run_to_record(run) for run in campaign.seed_runs}

    def service_run():
        with tempfile.TemporaryDirectory() as tmp:
            store = CampaignStore(Path(tmp) / "store")
            service = CampaignService(
                store,
                ServiceConfig(workers=1, batch_size=20, poll_interval=0.005),
            )
            service.start()
            try:
                started = time.perf_counter()
                for cid, tenant, chunk in (
                    ("bench-a", "alice", range(half)),
                    ("bench-b", "bob", range(half, seeds)),
                ):
                    rejection = service.submit(
                        CampaignManifest(
                            campaign_id=cid,
                            spec=spec,
                            seeds=tuple(chunk),
                            tenant=tenant,
                        )
                    )
                    assert rejection is None, rejection
                service.run_until_idle(max_seconds=600)
                elapsed = time.perf_counter() - started
                records: dict[int, dict] = {}
                states = []
                for cid in ("bench-a", "bench-b"):
                    states.append(store.state(cid))
                    journal = CampaignJournal(
                        store.campaign_dir(cid) / "journal.jsonl"
                    )
                    records.update(journal.load_records())
                return elapsed, records, states
            finally:
                service.shutdown()

    direct_seconds, direct_records = direct_run()
    service_seconds, service_records, states = service_run()
    identical = (
        service_records == direct_records and all(s == "DONE" for s in states)
    )
    # Best-of-two on each arm: both gates sit close to real ratios and a
    # single fsync stall on a loaded CI box would flake them.
    service_seconds = min(service_seconds, service_run()[0])
    direct_seconds = min(direct_seconds, direct_run()[0])

    ratio = direct_seconds / service_seconds if service_seconds else None
    cpu_count = os.cpu_count() or 1
    bound = 0.9 if cpu_count > 1 else 0.7
    return {
        "seeds": seeds,
        "campaigns": 2,
        "cpu_count": cpu_count,
        "bound": bound,
        "direct_seconds": round(direct_seconds, 3),
        "service_seconds": round(service_seconds, 3),
        "direct_seeds_per_second": round(seeds / direct_seconds, 1)
        if direct_seconds
        else None,
        "service_seeds_per_second": round(seeds / service_seconds, 1)
        if service_seconds
        else None,
        "throughput_ratio": round(ratio, 3) if ratio is not None else None,
        "identical": identical,
        # The CI gate: the durable-store + fleet path must keep >= bound x
        # the direct campaign's throughput and journal identical records.
        "within_bound": bool(
            identical and ratio is not None and ratio >= bound
        ),
    }


def bench_chaos_seam(records: int = 400, trials: int = 5) -> dict:
    """What the chaos ``FileOps`` seam costs with chaos *off*.

    Every durable journal/store write now routes through an injectable
    seam (``repro.robustness.chaos.FileOps``) so fault-injection tests can
    fail any single call.  Production runs the real singleton, so the seam
    must be invisible at runtime: this times ``CampaignJournal``'s
    fsync-per-line append through the seam against an inline loop that
    calls ``open``/``write``/``os.fsync`` directly (the pre-seam code
    shape, byte-identical output).  Interleaved min-of-*trials* on both
    arms; ``within_bound`` is the CI gate: seam overhead <= 1.05x.
    """
    import tempfile

    from repro.robustness.journal import CampaignJournal, seal_record

    def payload(seed: int) -> dict:
        return {
            "v": 1,
            "seed": seed,
            "program": "arith_mix_0",
            "transformation_count": 40,
            "skipped_targets": [],
            "faults": [],
            "findings": [],
        }

    def inline_run(path: Path) -> float:
        started = time.perf_counter()
        for seed in range(records):
            line = seal_record(payload(seed))
            with open(path, "a+b") as handle:
                if handle.tell() > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        return time.perf_counter() - started

    def seam_run(path: Path) -> float:
        journal = CampaignJournal(path)  # default fileops: REAL_FILEOPS
        started = time.perf_counter()
        for seed in range(records):
            journal.append_record(payload(seed))
        return time.perf_counter() - started

    inline_seconds = seam_seconds = float("inf")
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for trial in range(trials):
            inline_path = base / f"inline-{trial}.jsonl"
            seam_path = base / f"seam-{trial}.jsonl"
            inline_seconds = min(inline_seconds, inline_run(inline_path))
            seam_seconds = min(seam_seconds, seam_run(seam_path))
            identical = identical and (
                inline_path.read_bytes() == seam_path.read_bytes()
            )
    ratio = seam_seconds / inline_seconds if inline_seconds else None
    return {
        "records": records,
        "trials": trials,
        "inline_seconds": round(inline_seconds, 3),
        "seam_seconds": round(seam_seconds, 3),
        "inline_appends_per_second": round(records / inline_seconds, 1)
        if inline_seconds
        else None,
        "seam_appends_per_second": round(records / seam_seconds, 1)
        if seam_seconds
        else None,
        "overhead": round(ratio, 3) if ratio is not None else None,
        "identical": identical,
        # The CI gate: the injectable seam must cost <= 1.05x the direct
        # calls on the fsync-per-record journal hot path.
        "within_bound": bool(
            identical and ratio is not None and ratio <= 1.05
        ),
    }


def bench_dedup_scale(findings: int) -> dict:
    """Streaming owner-map dedup vs the quadratic Figure 6 picker.

    The corpus is ``synthetic_reduced_tests`` — a realistic campaign shape
    (heavily skewed type families, near-duplicate mutations, a flaky tail,
    some empty sets).  Three arms over the same corpus:

    * the verbatim pre-optimization Figure 6 loop (re-sort + re-filter
      after every pick) — the quadratic reference, and the independent
      oracle now that the other two arms share one engine;
    * the batch ``deduplicate`` (one call into ``StreamingDedup``);
    * ``StreamingDedup`` fed one finding at a time.

    All three must pick the *same tests in the same order*.
    ``within_bound`` is the CI gate: streaming >= 10x the quadratic
    reference's wall clock, bounded exact comparisons per candidate
    (<= 16), and sub-quadratic growth (10x the findings may cost at most
    20x the comparisons — quadratic would cost 100x).
    """
    from repro.core.dedup import ReducedTest, deduplicate
    from repro.core.dedup_corpus import synthetic_reduced_tests
    from repro.core.dedup_scale import StreamingDedup

    def reference(tests: list[ReducedTest]) -> list[ReducedTest]:
        to_investigate: list[ReducedTest] = []
        for group in (
            [t for t in tests if not t.nondeterministic],
            [t for t in tests if t.nondeterministic],
        ):
            remaining = [t for t in group if t.types]
            remaining.sort(key=lambda t: (len(t.types), t.test_id))
            size = 1
            while remaining:
                chosen = next(
                    (t for t in remaining if len(t.types) == size), None
                )
                if chosen is None:
                    size += 1
                    continue
                to_investigate.append(chosen)
                remaining = [
                    t for t in remaining if not (t.types & chosen.types)
                ]
                remaining.sort(key=lambda t: (len(t.types), t.test_id))
                size = 1
        return to_investigate

    corpus = synthetic_reduced_tests(findings, seed=0)
    small = synthetic_reduced_tests(max(findings // 10, 1), seed=0)

    started = time.perf_counter()
    reference_picks = reference(corpus)
    reference_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batch = deduplicate(corpus)
    batch_seconds = time.perf_counter() - started

    started = time.perf_counter()
    engine = StreamingDedup()
    engine.ingest_many(corpus)
    streamed = engine.result()
    streaming_seconds = time.perf_counter() - started

    small_engine = StreamingDedup()
    small_engine.ingest_many(small)

    ids = lambda tests: [t.test_id for t in tests]
    identical = (
        ids(streamed.to_investigate)
        == ids(batch.to_investigate)
        == ids(reference_picks)
    )
    stats = engine.stats_json()
    comparisons_per_candidate = (
        stats["comparisons"] / stats["candidates"]
        if stats["candidates"]
        else None
    )
    growth = (
        stats["comparisons"] / small_engine.stats.comparisons
        if small_engine.stats.comparisons
        else None
    )
    speedup = (
        reference_seconds / streaming_seconds if streaming_seconds else None
    )
    return {
        "findings": findings,
        "reports": streamed.report_count,
        "groups": stats["groups"],
        "reference_seconds": round(reference_seconds, 3),
        "batch_seconds": round(batch_seconds, 3),
        "streaming_seconds": round(streaming_seconds, 3),
        "findings_per_second": round(findings / streaming_seconds, 1)
        if streaming_seconds
        else None,
        "speedup": round(speedup, 3) if speedup is not None else None,
        "comparisons": stats["comparisons"],
        "comparisons_per_candidate": round(comparisons_per_candidate, 3)
        if comparisons_per_candidate is not None
        else None,
        "comparison_growth_10x": round(growth, 3)
        if growth is not None
        else None,
        "identical": identical,
        # The CI gate: same picks, >= 10x the quadratic reference, bounded
        # per-candidate comparisons, sub-quadratic growth.
        "within_bound": bool(
            identical
            and speedup is not None
            and speedup >= 10.0
            and comparisons_per_candidate is not None
            and comparisons_per_candidate <= 16.0
            and growth is not None
            and growth <= 20.0
        ),
    }


#: Section names accepted by ``--section`` (``all`` runs every one).
SECTIONS = (
    "campaign",
    "supervision",
    "tracing",
    "reduction",
    "hardened",
    "pass_pipeline",
    "parallel_reduction",
    "probe_throughput",
    "service",
    "chaos_seam",
    "dedup_scale",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=80, help="campaign seeds")
    parser.add_argument(
        "--reduce-seeds",
        type=int,
        default=None,
        help="seeds for the reduction workload (default: same as --seeds)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="parallel worker count (0 = one per CPU, but at least 4 so the "
        "sharded path is exercised even on small machines)",
    )
    parser.add_argument("--max-transformations", type=int, default=120)
    parser.add_argument("--cap-per-signature", type=int, default=4)
    parser.add_argument(
        "--reduce-workers",
        type=int,
        default=4,
        help="worker count for the parallel-reduction section",
    )
    parser.add_argument(
        "--probe-delay",
        type=float,
        default=0.02,
        help="per-probe latency (seconds) modelling a real compiler "
        "invocation in the parallel-reduction section",
    )
    parser.add_argument(
        "--max-findings",
        type=int,
        default=8,
        help="findings reduced in the parallel-reduction section",
    )
    parser.add_argument(
        "--dedup-findings",
        type=int,
        default=100_000,
        help="synthetic corpus size for the dedup-scale section",
    )
    parser.add_argument(
        "--section",
        choices=("all",) + SECTIONS,
        default="all",
        help="run only one section (default: all); with a single section the "
        "output JSON still carries previously recorded sections if --out "
        "exists",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_perf.json"
    )
    args = parser.parse_args(argv)
    workers = args.workers or max(4, default_worker_count())
    reduce_seeds = args.reduce_seeds if args.reduce_seeds is not None else args.seeds
    selected = SECTIONS if args.section == "all" else (args.section,)

    campaign = supervision = tracing = reduction = None
    hardened = pass_pipeline = None
    parallel_reduction = probe_throughput = service = chaos_seam = None
    dedup_scale = None
    if "campaign" in selected:
        campaign = bench_campaign(args.seeds, workers, args.max_transformations)
    if "supervision" in selected:
        supervision = bench_supervision(args.seeds, args.max_transformations)
    if "tracing" in selected:
        tracing = bench_tracing(args.seeds, args.max_transformations)
    if "reduction" in selected:
        reduction = bench_reduction(
            reduce_seeds, args.max_transformations, args.cap_per_signature
        )
    if "hardened" in selected:
        hardened = bench_hardened_reduction(
            reduce_seeds, args.max_transformations, args.cap_per_signature
        )
    if "pass_pipeline" in selected:
        pass_pipeline = bench_pass_pipeline(
            reduce_seeds, args.max_transformations, args.cap_per_signature
        )
    if "parallel_reduction" in selected:
        parallel_reduction = bench_parallel_reduction(
            reduce_seeds,
            args.max_transformations,
            args.reduce_workers,
            args.probe_delay,
            args.max_findings,
        )
    if "probe_throughput" in selected:
        probe_throughput = bench_probe_throughput(
            args.seeds, workers, args.max_transformations, args.max_findings
        )
    if "service" in selected:
        service = bench_service(args.seeds, args.max_transformations)
    if "chaos_seam" in selected:
        chaos_seam = bench_chaos_seam()
    if "dedup_scale" in selected:
        dedup_scale = bench_dedup_scale(args.dedup_findings)

    record = {
        "benchmark": "perf_campaign",
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    if args.section != "all" and args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
            for key in (
                "campaign",
                "supervision",
                "tracing",
                "reduction",
                "hardened_reduction",
                "pass_pipeline",
                "parallel_reduction",
                "probe_throughput",
                "service",
                "chaos_seam",
                "dedup_scale",
            ):
                if key in previous:
                    record[key] = previous[key]
        except (json.JSONDecodeError, OSError):
            pass
    for key, value in (
        ("campaign", campaign),
        ("supervision", supervision),
        ("tracing", tracing),
        ("reduction", reduction),
        ("hardened_reduction", hardened),
        ("pass_pipeline", pass_pipeline),
        ("parallel_reduction", parallel_reduction),
        ("probe_throughput", probe_throughput),
        ("service", service),
        ("chaos_seam", chaos_seam),
        ("dedup_scale", dedup_scale),
    ):
        if value is not None:
            record[key] = value
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    rows: list[list] = []
    if campaign is not None:
        rows += [
                ["campaign", "serial seconds", campaign["serial_seconds"]],
                ["campaign", f"parallel seconds (x{workers})", campaign["parallel_seconds"]],
                ["campaign", "speedup", campaign["speedup"]],
                ["campaign", "identical to serial", campaign["identical"]],
        ]
    if supervision is not None:
        rows += [
                ["supervision", "in-process seconds", supervision["in_process_seconds"]],
                ["supervision", "supervised seconds", supervision["supervised_seconds"]],
                ["supervision", "overhead (x)", supervision["overhead"]],
                ["supervision", "identical to in-process", supervision["identical"]],
        ]
    if tracing is not None:
        rows += [
                ["tracing", "untraced seconds", tracing["untraced_seconds"]],
                ["tracing", "traced seconds", tracing["traced_seconds"]],
                ["tracing", "overhead (x)", tracing["overhead"]],
                ["tracing", "events written", tracing["events"]],
                ["tracing", "trace matches campaign", tracing["trace_consistent"]],
                ["tracing", "identical to untraced", tracing["identical"]],
        ]
    if reduction is not None:
        rows += [
                ["reduction", "uncached full replays", reduction["uncached_replays"]],
                ["reduction", "cached replays", reduction["cached"]["replays"]],
                ["reduction", "cached scratch replays", reduction["cached"]["scratch_replays"]],
                ["reduction", "replay reduction", reduction["replay_reduction"]],
                ["reduction", "scratch-replay reduction", reduction["scratch_replay_reduction"]],
                ["reduction", "application reduction", reduction["application_reduction"]],
                ["reduction", "uncached seconds", reduction["uncached_seconds"]],
                ["reduction", "cached seconds", reduction["cached_seconds"]],
                ["reduction", "speedup", reduction["reduction_speedup"]],
                ["reduction", "identical to uncached", reduction["identical"]],
        ]
    if hardened is not None:
        rows += [
                ["hardened", "raw tests run", hardened["raw_tests_run"]],
                ["hardened", "hardened probes", hardened["hardened_probes"]],
                ["hardened", "probe overhead (x, bound 1.5)", hardened["probe_overhead"]],
                ["hardened", "degraded reductions", hardened["degraded"]],
                ["hardened", "identical to raw", hardened["identical"]],
        ]
    if pass_pipeline is not None:
        rows += [
                ["pass-pipeline", "reductions", pass_pipeline["reductions"]],
                ["pass-pipeline", "chain probes", pass_pipeline["chain_probes"]],
                ["pass-pipeline", "pipeline probes", pass_pipeline["pipeline_probes"]],
                [
                    "pass-pipeline",
                    "probe ratio (bound 1.25)",
                    pass_pipeline["probe_ratio"],
                ],
                [
                    "pass-pipeline",
                    "final length (chain -> pipeline)",
                    f"{pass_pipeline['chain_final_length']} -> "
                    f"{pass_pipeline['pipeline_final_length']}",
                ],
                [
                    "pass-pipeline",
                    "final instructions (chain -> pipeline)",
                    f"{pass_pipeline['chain_final_instructions']} -> "
                    f"{pass_pipeline['pipeline_final_instructions']}",
                ],
                ["pass-pipeline", "identical at K=1 vs K=2", pass_pipeline["identical"]],
        ]
    if parallel_reduction is not None:
        rows += [
                ["parallel-reduce", "reductions", parallel_reduction["reductions"]],
                [
                    "parallel-reduce",
                    f"serial seconds ({parallel_reduction['probe_delay']}s probes)",
                    parallel_reduction["serial_seconds"],
                ],
                [
                    "parallel-reduce",
                    f"fleet seconds (x{parallel_reduction['workers']})",
                    parallel_reduction["parallel_seconds"],
                ],
                ["parallel-reduce", "speedup", parallel_reduction["speedup"]],
                [
                    "parallel-reduce",
                    "wasted speculation",
                    f"{parallel_reduction['wasted']} ({parallel_reduction['wasted_percent']}%)",
                ],
                [
                    "parallel-reduce",
                    "probes per second",
                    parallel_reduction["probes_per_second"],
                ],
                ["parallel-reduce", "identical to serial", parallel_reduction["identical"]],
        ]
    if probe_throughput is not None:
        rows += [
            [
                "probe-throughput",
                "uncached probes/sec",
                probe_throughput["uncached_probes_per_second"],
            ],
            [
                "probe-throughput",
                "cached probes/sec",
                probe_throughput["cached_probes_per_second"],
            ],
            [
                "probe-throughput",
                "cache speedup (bound 1.5x)",
                probe_throughput["cache_speedup"],
            ],
            [
                "probe-throughput",
                "stage hits / misses",
                f"{probe_throughput['cache_stats']['stage_hits']} / "
                f"{probe_throughput['cache_stats']['stage_misses']}",
            ],
            [
                "probe-throughput",
                "parallel/serial ratio (bound 0.95x)",
                probe_throughput["parallel_ratio"],
            ],
            [
                "probe-throughput",
                "parallel degraded to serial",
                probe_throughput["parallel_degraded"],
            ],
            ["probe-throughput", "identical on all paths", probe_throughput["identical"]],
        ]
    if service is not None:
        rows += [
            ["service", "direct seconds", service["direct_seconds"]],
            ["service", "service seconds (2 tenants)", service["service_seconds"]],
            [
                "service",
                f"throughput ratio (bound {service['bound']}x)",
                service["throughput_ratio"],
            ],
            ["service", "journal records identical", service["identical"]],
        ]
    if chaos_seam is not None:
        rows += [
            [
                "chaos-seam",
                "inline appends/sec",
                chaos_seam["inline_appends_per_second"],
            ],
            [
                "chaos-seam",
                "seam appends/sec",
                chaos_seam["seam_appends_per_second"],
            ],
            [
                "chaos-seam",
                "overhead (x, bound 1.05)",
                chaos_seam["overhead"],
            ],
            ["chaos-seam", "bytes identical", chaos_seam["identical"]],
        ]
    if dedup_scale is not None:
        rows += [
            ["dedup-scale", "findings", dedup_scale["findings"]],
            ["dedup-scale", "reports", dedup_scale["reports"]],
            [
                "dedup-scale",
                "quadratic reference seconds",
                dedup_scale["reference_seconds"],
            ],
            ["dedup-scale", "batch seconds", dedup_scale["batch_seconds"]],
            [
                "dedup-scale",
                "streaming seconds",
                dedup_scale["streaming_seconds"],
            ],
            [
                "dedup-scale",
                "speedup vs reference (bound 10x)",
                dedup_scale["speedup"],
            ],
            [
                "dedup-scale",
                "comparisons/candidate (bound 16)",
                dedup_scale["comparisons_per_candidate"],
            ],
            [
                "dedup-scale",
                "comparison growth at 10x findings (bound 20x)",
                dedup_scale["comparison_growth_10x"],
            ],
            ["dedup-scale", "identical picks on all arms", dedup_scale["identical"]],
        ]
    print(format_table(["Section", "Metric", "Value"], rows))
    print(f"\nwrote {args.out}")

    identical_checks = [
        section["identical"]
        for section in (
            campaign,
            supervision,
            tracing,
            reduction,
            hardened,
            pass_pipeline,
            parallel_reduction,
            probe_throughput,
            service,
            chaos_seam,
            dedup_scale,
        )
        if section is not None
    ]
    if tracing is not None:
        identical_checks.append(tracing["trace_consistent"])
    if not all(identical_checks):
        print("ERROR: fast paths diverged from the reference results", file=sys.stderr)
        return 1
    if hardened is not None and not hardened["within_bound"]:
        print(
            "ERROR: fault-tolerant reduction exceeded its overhead bound "
            f"({hardened['probe_overhead']}x probes vs raw tests, limit 1.5x)",
            file=sys.stderr,
        )
        return 1
    if pass_pipeline is not None and not pass_pipeline["within_bound"]:
        print(
            "ERROR: pass pipeline missed its bounds (probe ratio "
            f"{pass_pipeline['probe_ratio']}x vs the chain, limit 1.25x; "
            f"final length {pass_pipeline['pipeline_final_length']} vs "
            f"{pass_pipeline['chain_final_length']}; final instructions "
            f"{pass_pipeline['pipeline_final_instructions']} vs "
            f"{pass_pipeline['chain_final_instructions']})",
            file=sys.stderr,
        )
        return 1
    if parallel_reduction is not None and not parallel_reduction["within_bound"]:
        bound = (
            ">= 1.5x speedup"
            if parallel_reduction["cpu_count"] > 1
            else "<= 1.15x single-core overhead"
        )
        print(
            "ERROR: parallel reduction missed its bound "
            f"(speedup {parallel_reduction['speedup']}x at "
            f"{parallel_reduction['workers']} workers on "
            f"{parallel_reduction['cpu_count']} CPUs; required {bound})",
            file=sys.stderr,
        )
        return 1
    if probe_throughput is not None and not probe_throughput["within_bound"]:
        print(
            "ERROR: probe throughput missed its bounds (cache speedup "
            f"{probe_throughput['cache_speedup']}x, required >= 1.5x; "
            f"parallel/serial ratio {probe_throughput['parallel_ratio']}x, "
            "required >= 0.95x)",
            file=sys.stderr,
        )
        return 1
    if service is not None and not service["within_bound"]:
        print(
            "ERROR: campaign service missed its throughput bound "
            f"({service['throughput_ratio']}x vs direct run_campaign on "
            f"{service['cpu_count']} CPUs, required >= {service['bound']}x)",
            file=sys.stderr,
        )
        return 1
    if dedup_scale is not None and not dedup_scale["within_bound"]:
        print(
            "ERROR: dedup-scale missed its bounds (speedup "
            f"{dedup_scale['speedup']}x vs the quadratic reference, "
            "required >= 10x; comparisons/candidate "
            f"{dedup_scale['comparisons_per_candidate']}, limit 16; "
            f"10x-findings comparison growth "
            f"{dedup_scale['comparison_growth_10x']}x, limit 20x)",
            file=sys.stderr,
        )
        return 1
    if chaos_seam is not None and not chaos_seam["within_bound"]:
        print(
            "ERROR: chaos FileOps seam exceeded its overhead bound "
            f"({chaos_seam['overhead']}x vs inline journal appends, "
            "limit 1.05x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
