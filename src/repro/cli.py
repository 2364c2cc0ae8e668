"""Command-line entry points (spirv-fuzz-style tool surface).

* ``repro-fuzz``      — fuzz a reference program into a variant + transformation log
* ``repro-reduce``    — delta-debug a saved transformation log against a target
* ``repro-dedup``     — deduplicate saved reduced logs (Figure 6), or stream
  campaign journals / trace files through the scale picker (``--stream``)
* ``repro-campaign``  — run a small fuzzing campaign across the Table 2 targets
* ``repro-report``    — summarize a campaign from its trace/journal JSONL
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.compilers import make_target, make_targets
from repro.compilers.wrapper import DelayedTarget
from repro.core.dedup import ReducedTest, deduplicate
from repro.core.dedup_scale import stream_dedup
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.harness import Finding, Harness
from repro.core.reducer import replay
from repro.core.transformation import sequence_from_json, sequence_to_json
from repro.corpus import donor_programs, reference_programs
from repro.ir.printer import diff_lines, disassemble
from repro.observability.report import report_main

__all__ = [
    "fuzz_main",
    "reduce_main",
    "dedup_main",
    "campaign_main",
    "report_main",
]


def _reference(name: str):
    for program in reference_programs():
        if program.name == name:
            return program
    names = ", ".join(p.name for p in reference_programs())
    raise SystemExit(f"unknown reference {name!r}; available: {names}")


def fuzz_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fuzz a reference program.")
    parser.add_argument("reference", help="reference program name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-transformations", type=int, default=150)
    parser.add_argument("--out", type=Path, default=Path("variant.json"))
    args = parser.parse_args(argv)

    program = _reference(args.reference)
    fuzzer = Fuzzer(
        donor_programs(), FuzzerOptions(max_transformations=args.max_transformations)
    )
    result = fuzzer.run(program.module, program.inputs, args.seed)
    record = {
        "reference": program.name,
        "seed": args.seed,
        "transformations": sequence_to_json(result.transformations),
    }
    args.out.write_text(json.dumps(record, indent=2))
    print(f"applied {len(result.transformations)} transformations -> {args.out}")
    print(disassemble(result.variant))
    return 0


def reduce_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reduce a transformation log against one target.  "
        "Probes are memoized by module content hash for the whole "
        "reduction; the result is identical to uncached probing."
    )
    parser.add_argument("log", type=Path, help="json produced by repro-fuzz")
    parser.add_argument("--target", required=True)
    parser.add_argument(
        "--reduce-timeout",
        type=float,
        default=None,
        help="wall-clock budget for the whole reduction, in seconds; on "
        "exhaustion the best-so-far result is returned (degraded: "
        "budget-exhausted), never an exception",
    )
    parser.add_argument(
        "--reduce-retries",
        type=int,
        default=None,
        help="retries per candidate probe after a supervision fault "
        "(timeout / OOM / worker death) before the candidate counts as "
        "not interesting; implies the fault-tolerant pipeline",
    )
    parser.add_argument(
        "--reduce-journal",
        type=Path,
        default=None,
        help="record every candidate verdict to this JSONL file "
        "(fsync per line); enables --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay verdicts already recorded in --reduce-journal instead "
        "of re-probing; a SIGKILLed reduction resumes to a byte-identical "
        "result and journal",
    )
    parser.add_argument(
        "--probe-timeout",
        type=float,
        default=None,
        help="wall-clock bound per interestingness probe, in seconds; "
        "probes run supervised in a child process",
    )
    parser.add_argument(
        "--probe-memory-mb",
        type=int,
        default=None,
        help="address-space cap per supervised probe worker, in MiB",
    )
    parser.add_argument(
        "--probe-delay",
        type=float,
        default=None,
        help="testing aid: sleep this many seconds inside every probe "
        "(makes the reduction slow enough to interrupt deliberately)",
    )
    parser.add_argument(
        "--reduce-workers",
        type=int,
        default=1,
        help="probe candidates speculatively over this many persistent "
        "worker processes; verdicts commit in serial scan order, so the "
        "result is byte-identical to --reduce-workers=1 (default: 1)",
    )
    parser.add_argument(
        "--reduce-passes",
        default=None,
        help="the creduce-style pass pipeline to run instead of ddmin "
        "alone: a comma-separated pass list (available: type-batch, "
        "ddmin, payload-shrink, cleanup; 'default' expands to all four), "
        "scheduled in groups to a global fixpoint",
    )
    parser.add_argument(
        "--giveup",
        type=int,
        default=None,
        help="per-pass give-up budget: consecutive rejections before a "
        "greedy pass is abandoned for the invocation (default: 1000, "
        "creduce's constant; needs --reduce-passes with a pass besides "
        "ddmin)",
    )
    parser.add_argument(
        "--out-json",
        type=Path,
        default=None,
        help="write the ReductionResult as JSON (deterministic; used by CI "
        "to diff a resumed reduction against an uninterrupted one)",
    )
    args = parser.parse_args(argv)
    if args.resume and args.reduce_journal is None:
        parser.error("--resume requires --reduce-journal")
    config = _reduction_config(parser, args)

    record = json.loads(args.log.read_text())
    program = _reference(record["reference"])
    transformations = sequence_from_json(record["transformations"])
    target = make_target(args.target)
    if args.probe_delay is not None:
        target = DelayedTarget(target, args.probe_delay)
    robustness = None
    if args.probe_timeout is not None or args.probe_memory_mb is not None:
        from repro.robustness import RobustnessConfig

        robustness = RobustnessConfig(
            probe_timeout=args.probe_timeout,
            memory_limit_mb=args.probe_memory_mb,
        )
    harness = Harness(
        [target],
        [program],
        robustness=robustness,
    )
    try:
        # The logged sequence replays to the fuzzed variant (Definition 2.5);
        # classify it through the campaign's two flows.
        ctx = replay(program.module, program.inputs, transformations)
        probed = harness.targets[0]
        classified, optimized_flow = harness.classify_variant(
            probed,
            harness.reference_outcome(probed, program),
            ctx.module,
            ctx.inputs,
        )
        if classified is None:
            print("the variant does not trigger a bug on this target")
            return 1
        signature, kind, ground_truth = classified
        finding = Finding(
            target_name=probed.name,
            program_name=program.name,
            seed=record["seed"],
            signature=signature,
            kind=kind,
            optimized_flow=optimized_flow,
            transformations=list(transformations),
            original=program.module,
            inputs=dict(program.inputs),
            ground_truth_bug=ground_truth,
        )
        reduction = harness.reduce_finding(
            finding, config, journal=args.reduce_journal, resume=args.resume
        )
        variant = harness.reduced_variant(finding, reduction)
    finally:
        harness.close()
    print(
        f"reduced {reduction.initial_length} -> {reduction.final_length} "
        f"transformations in {reduction.tests_run} tests"
    )
    if reduction.degraded is not None:
        print(f"degraded: {reduction.degraded} (best-so-far, not 1-minimal)")
    for pass_stats in getattr(reduction, "pass_stats", []) or []:
        line = (
            f"pass {pass_stats.name}: {pass_stats.runs} runs, "
            f"{pass_stats.probes} probes, {pass_stats.accepted} accepted, "
            f"{pass_stats.removed} removed"
        )
        if pass_stats.gave_up:
            line += f", gave up x{pass_stats.gave_up}"
        print(line)
    if reduction.stability is not None:
        s = reduction.stability
        print(
            f"stability: {s['probes']} probes, "
            f"{s['escalation_probes']} escalations, "
            f"{sum(s['faults'].values())} faults, "
            f"{s['disagreements']} disagreements"
        )
    if reduction.replay_stats is not None:
        stats = reduction.replay_stats
        print(
            f"replay cache: {stats.replays} replays "
            f"({stats.memo_hits} memo hits, {stats.digest_answers} digest "
            f"answers, {stats.prefix_hits} prefix hits, "
            f"{stats.transformations_saved} transformation applications saved)"
        )
    if harness.probe_cache is not None:
        stats = harness.probe_cache.stats
        print(
            f"probe cache: {stats.probes} probes "
            f"({stats.outcome_hits} outcome hits, {stats.stage_hits} stage "
            f"hits, {stats.exec_hits} execution hits)"
        )
    speculation = getattr(reduction, "speculation", None)
    if speculation is not None and speculation.mode == "pool":
        print(
            f"speculation: {speculation.dispatched} probes over "
            f"{speculation.workers} workers, {speculation.wasted} wasted "
            f"({speculation.wasted_percent:.1f}%), "
            f"{speculation.worker_recoveries} worker recoveries"
        )
    if args.out_json is not None:
        args.out_json.write_text(
            json.dumps(reduction.to_json(), indent=2, sort_keys=True) + "\n"
        )
        print(f"result written to {args.out_json}")
    print("\n".join(diff_lines(program.module, variant)))
    return 0


def _reduction_config(parser: argparse.ArgumentParser, args) -> "object":
    """The :class:`~repro.reduce.ReductionConfig` for ``repro-reduce``'s
    flags; an invalid combination exits through ``parser.error``."""
    from repro.reduce import DEFAULT_PASS_NAMES, ReductionConfig
    from repro.robustness import ReductionPolicy

    passes, policy = ReductionConfig.passes, None
    if args.reduce_passes is not None:
        passes = []
        for name in filter(None, map(str.strip, args.reduce_passes.split(","))):
            passes.extend(DEFAULT_PASS_NAMES if name == "default" else [name])
    if args.reduce_retries is not None:
        policy = ReductionPolicy(fault_retries=args.reduce_retries)
    try:
        return ReductionConfig(
            passes=passes,
            giveup=args.giveup,
            workers=args.reduce_workers,
            max_seconds=args.reduce_timeout,
            policy=policy,
        )
    except ValueError as exc:
        parser.error(str(exc))


def dedup_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Deduplicate reduced transformation logs (Figure 6).  With "
            "--stream, inputs are campaign journals / trace files fed "
            "through the streaming scale picker instead."
        )
    )
    parser.add_argument("logs", nargs="+", type=Path)
    parser.add_argument(
        "--stream",
        action="store_true",
        help="treat inputs as campaign journal / trace JSONL and run the "
        "streaming picker (identical picks, sub-quadratic)",
    )
    parser.add_argument(
        "--dedup-journal",
        type=Path,
        default=None,
        help="fsync-per-decision journal making the streaming run "
        "resumable after SIGKILL",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="verify and extend an interrupted --dedup-journal; the "
        "caught-up journal and pick set are byte-identical to an "
        "uninterrupted run's",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print engine statistics"
    )
    parser.add_argument(
        "--out-json",
        type=Path,
        default=None,
        help="write picks + stats as JSON",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="append dedup.pick/dedup.suppress events to this trace file",
    )
    # Testing aid (SIGKILL-mid-dedup tests): sleep between arrivals.
    parser.add_argument(
        "--ingest-delay", type=float, default=0.0, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.resume and args.dedup_journal is None:
        parser.error("--resume requires --dedup-journal")
    if not args.stream and (args.dedup_journal or args.resume):
        parser.error("--dedup-journal/--resume require --stream")

    if args.stream:
        engine = stream_dedup(
            list(args.logs),
            tracer=args.trace,
            journal=args.dedup_journal,
            resume=args.resume,
            ingest_delay=args.ingest_delay,
        )
        result = engine.result()
        summary = engine.emit_summary()
        print(
            f"{summary['candidates']} findings -> "
            f"investigate {result.report_count}:"
        )
        for test in result.to_investigate:
            print(f"  {test.test_id}: {sorted(test.types)}")
        if args.stats:
            for key in sorted(summary):
                print(f"  {key}: {summary[key]}")
        if args.out_json is not None:
            payload = {
                "picks": [
                    {
                        "test": t.test_id,
                        "types": sorted(t.types),
                        "nondeterministic": t.nondeterministic,
                    }
                    for t in result.to_investigate
                ],
                "stats": summary,
            }
            args.out_json.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        return 0

    tests = []
    for path in args.logs:
        record = json.loads(path.read_text())
        transformations = sequence_from_json(record["transformations"])
        tests.append(ReducedTest.from_transformations(str(path), transformations))
    result = deduplicate(tests)
    print(f"{len(tests)} tests -> investigate {result.report_count}:")
    for test in result.to_investigate:
        print(f"  {test.test_id}: {sorted(test.types)}")
    return 0


def campaign_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a small fuzzing campaign.  Probes are memoized by "
        "module content hash within each seed (the memo is cleared when a "
        "seed starts; --metrics shows its probe_cache.* counters); findings "
        "are identical to uncached probing."
    )
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--max-transformations", type=int, default=120)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the campaign (0 = one per CPU; "
        "1 = serial; results are identical at any count)",
    )
    parser.add_argument(
        "--probe-timeout",
        type=float,
        default=None,
        help="wall-clock bound per target probe, in seconds; probes run "
        "supervised in a child process and hangs become 'timeout' findings",
    )
    parser.add_argument(
        "--probe-memory-mb",
        type=int,
        default=None,
        help="address-space cap per probe worker, in MiB; allocation blow-ups "
        "become 'resource' findings instead of taking the campaign down",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-probe each finding this many times; verdicts that do not "
        "reproduce are flagged nondeterministic (kept apart by dedup); "
        "turns the probe memo off, since a memoized re-probe cannot flake",
    )
    parser.add_argument(
        "--quarantine-after",
        type=int,
        default=None,
        help="skip a target for the rest of the campaign after this many "
        "probe faults (timeouts / OOMs / worker crashes)",
    )
    parser.add_argument(
        "--journal",
        type=Path,
        default=None,
        help="append per-seed results to this JSONL file as they complete",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip seeds already recorded in --journal (checkpoint/resume)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="append structured campaign events (probes, findings, faults, "
        "reductions) to this JSONL file; read back with repro-report",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the aggregated counter/timing table after the campaign",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a live line per completed seed",
    )
    args = parser.parse_args(argv)
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")

    robustness = None
    if (
        args.probe_timeout is not None
        or args.probe_memory_mb is not None
        or args.retries > 0
        or args.quarantine_after is not None
    ):
        from repro.robustness import RobustnessConfig

        robustness = RobustnessConfig(
            probe_timeout=args.probe_timeout,
            memory_limit_mb=args.probe_memory_mb,
            retries=args.retries,
            quarantine_after=args.quarantine_after,
        )

    harness = Harness(
        make_targets(),
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=args.max_transformations),
        robustness=robustness,
        tracer=args.trace,
    )
    workers = args.workers if args.workers != 0 else None
    if workers is None:
        from repro.perf.parallel import default_worker_count

        workers = default_worker_count()

    progress = None
    if args.progress:
        completed = {"count": 0}

        def progress(run) -> None:
            completed["count"] += 1
            print(
                f"[{completed['count']}/{args.seeds}] "
                f"seed {run.seed}: {len(run.findings)} finding(s)",
                flush=True,
            )

    try:
        result = harness.run_campaign(
            range(args.seeds),
            workers=workers,
            journal=args.journal,
            resume=args.resume,
            progress=progress,
        )
    finally:
        harness.close()
        harness.tracer.close()
    print(f"{args.seeds} seeds -> {len(result.findings)} findings")
    for target in make_targets():
        signatures = result.signatures_for_target(target.name)
        print(f"  {target.name}: {len(signatures)} distinct signatures")
        for signature in sorted(signatures):
            print(f"      {signature}")
    flaky = sum(1 for f in result.findings if f.nondeterministic)
    if flaky:
        print(f"{flaky} finding(s) flagged nondeterministic")
    for name, reason in result.quarantined.items():
        print(f"quarantined {name}: {reason}")
    if args.metrics:
        print()
        print(harness.metrics.render())
    if args.trace is not None:
        print(f"trace written to {args.trace}")
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """``repro-serve``: the long-running campaign service (see
    :mod:`repro.service`).  Recovers any non-terminal campaigns in the
    store, starts the worker fleet and the JSON API, and loops until a
    drain is requested (``SIGTERM`` or ``POST /drain``)."""
    parser = argparse.ArgumentParser(
        description="Run the crash-safe campaign service."
    )
    parser.add_argument(
        "--store",
        type=Path,
        required=True,
        help="store root directory (created if missing); campaign state, "
        "journals, and results live under <store>/campaigns/<id>/",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="HTTP API port (0 = ephemeral; the bound address is written "
        "to <store>/http.json)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=2,
        help="seeds per lease batch (heartbeat granularity)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds without a per-seed heartbeat before a lease expires "
        "and its batch is re-queued",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=32,
        help="admission bound: further submissions are REJECTED (429)",
    )
    parser.add_argument(
        "--fault-budget",
        type=int,
        default=5,
        help="worker deaths / lease expiries a campaign may absorb before "
        "it is FAILED with reason fault-budget-exhausted",
    )
    parser.add_argument(
        "--jitter-seed",
        type=int,
        default=0,
        help="seed for the watchdog's decorrelated restart backoff",
    )
    parser.add_argument(
        "--min-disk-free-mb",
        type=int,
        default=0,
        help="shed new submissions (503 + Retry-After) while the store's "
        "filesystem has less than this many MiB free (0 = never shed)",
    )
    parser.add_argument(
        "--breaker-failures",
        type=int,
        default=0,
        help="consecutive campaign failures that open a tenant's circuit "
        "breaker (further submissions 503 until a jittered cooldown "
        "elapses; 0 = breakers disabled)",
    )
    parser.add_argument(
        "--compact-meta-kb",
        type=int,
        default=64,
        help="auto-compact a campaign's meta history (crash-safe snapshot) "
        "once it outgrows this many KiB (0 = never compact)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="append service events to this JSONL file "
        "(default: <store>/service-trace.jsonl)",
    )
    args = parser.parse_args(argv)

    from repro.service import CampaignService, CampaignStore, ServiceConfig
    from repro.service.http import ServiceHTTP

    store = CampaignStore(
        args.store,
        compact_meta_bytes=(
            args.compact_meta_kb * 1024 if args.compact_meta_kb > 0 else None
        ),
    )
    trace = args.trace if args.trace is not None else store.root / "service-trace.jsonl"
    service = CampaignService(
        store,
        ServiceConfig(
            workers=args.workers,
            batch_size=args.batch_size,
            lease_ttl=args.lease_ttl,
            max_queued=args.max_queued,
            fault_budget=args.fault_budget,
            jitter_seed=args.jitter_seed,
            min_disk_free_bytes=args.min_disk_free_mb * 1024 * 1024,
            breaker_failures=args.breaker_failures,
        ),
        tracer=trace,
    )
    service.start()
    http = ServiceHTTP(service, host=args.host, port=args.port)
    http.start()
    print(f"repro-serve listening on {http.base_url} (store: {store.root})", flush=True)
    try:
        return service.run_forever()
    finally:
        http.stop()
        service.tracer.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(campaign_main())
