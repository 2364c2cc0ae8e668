"""The repository's benchmark: three fixed-work workloads, every metric
printed by name and unit, every output checked.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same work twice, untraced and then with every layer
wrapped (see ``layers.py``), checks that both runs produced identical
counts and outputs, and prints the per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object::

    {"correct": true, "attempted": 150, "failed": 0, "metrics": {...}}

Times are adjusted to a reference host speed (see ``stats.HostMeter``);
the raw times and the host-kernel readings are printed on the ``#``
lines.

``--repeat N`` is the steadiness mode: N fresh runs on seeds
``seed .. seed+N-1`` (and the first seed once more, whose counts must
repeat exactly), each run's host-kernel readings, and each metric's
median and quartiles against its bound, written to
``perfbench/out/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from layers import SAMPLE_NAMES, SPAN_NAMES  # noqa: E402
from stats import HOST_REFERENCE_MS, HostMeter, percentile, quartiles, tail  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "probes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics derived from the program's own stats (not spans).
COUNT_UNITS = {
    "core.fuzzer.transformations": "count/op",
    "core.reducer.tests_run": "count/op",
    "core.reducer.accept_ratio": "ratio",
    "perf.replay_cache.prefix_hit_ratio": "ratio",
    "perf.probe_cache.outcome_hit_ratio": "ratio",
    "perf.probe_cache.stage_hit_ratio": "ratio",
    "perf.probe_cache.exec_hit_ratio": "ratio",
    "core.dedup_scale.comparisons_per_candidate": "count",
    "core.dedup_scale.sketch_suppressions": "count/op",
}
#: Counts reported per op (the rest are ratios of whole-run totals).
PER_OP_COUNTS = {name for name, unit in COUNT_UNITS.items() if unit == "count/op"}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_ms"] = "ms/op"
    units.update(COUNT_UNITS)
    for name in SAMPLE_NAMES:
        units[name] = "ms"
    units["trace.overhead"] = "x"
    units["fail_ratio"] = "ratio"
    return units


# -- peak memory --------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark to the current RSS (Linux), so
    the peak covers the timed ops only; ``False`` if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(reset_ok: bool) -> float:
    if reset_ok:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    # Lifetime peak (kB on Linux) when the mark cannot be reset.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one run ------------------------------------------------------------------


def setup_sample(workload: str) -> tuple[float, float]:
    """``(adjusted, raw)`` seconds of one fresh set-up (``setup_probe.py``)."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    adjusted, raw = done.stdout.strip().splitlines()[-1].split()
    return float(adjusted), float(raw)


def end_to_end(
    latencies: list[float], wall: float, probes: int, setup: list[float], peak_mb: float
) -> tuple[dict[str, float], float]:
    """The end-to-end metrics, and which percentile ``op_tail_ms`` is."""
    latencies_ms = [value * 1e3 for value in latencies]
    tail_pct, tail_ms = tail(latencies_ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": percentile(latencies_ms, 50.0),
        "op_tail_ms": tail_ms,
        "probes_per_s": probes / wall,
        "peak_rss_mb": peak_mb,
    }
    return metrics, tail_pct


def traced_pass(workload, inputs, trace_out: Path):
    """The same work with every layer wrapped; returns (result, failed,
    problems, per-layer figures)."""
    from layers import SpanRecorder, traced_layers

    recorder = SpanRecorder()
    # A harness binds some layer functions when it is built, so it is
    # built inside the patch; a fleet is forked before it, so the trace
    # covers the parent's layers only.
    program = workload.setup() if workload.forks_workers else None
    try:
        with traced_layers(recorder):
            if program is None:
                program = workload.setup()
            recorder.spans.clear()
            result = workload.run(program, inputs, HostMeter())
        failed, problems = workload.check(program, inputs, result)
    finally:
        if program is not None:
            workload.teardown(program)
    recorder.write(trace_out)
    ops = len(result.latencies)
    layer: dict[str, float] = {}
    totals = recorder.self_times()
    for name in SPAN_NAMES:
        calls, busy = totals.get(name, (0, 0.0))
        layer[f"{name}.calls"] = calls / ops
        layer[f"{name}.self_ms"] = busy * 1e3 / ops
    figures = {**recorder.dedup_figures(), **result.layer}
    for name in COUNT_UNITS:
        value = figures.get(name, 0)
        layer[name] = value / ops if name in PER_OP_COUNTS else value
    for name in SAMPLE_NAMES:
        samples = recorder.samples[name]
        layer[name] = statistics.median(samples) if samples else 0.0
    return result, failed, problems, layer


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.smoke)
    # The host meter reads the speed of the CPU it runs on; pinned, that
    # is the CPU every op runs on too, fleet workers (which inherit the
    # pin) included.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs = workload.make_inputs()
    # Fresh set-ups are timed before the ops, at each chunk boundary, and
    # after, so they sample the same host phases the ops do.
    setup = [setup_sample(workload.name)]
    meter = HostMeter(between=lambda: setup.append(setup_sample(workload.name)))
    program = workload.setup()
    try:
        reset_ok = reset_peak_rss()
        result = workload.run(program, inputs, meter)
        peak_mb = peak_rss_mb(reset_ok)
        failed, problems = workload.check(program, inputs, result)
    finally:
        workload.teardown(program)
    setup.append(setup_sample(workload.name))
    failed |= result.failed
    ops = len(result.latencies)
    metrics, tail_pct = end_to_end(
        result.latencies,
        result.wall,
        result.probes,
        [adjusted for adjusted, _raw in setup],
        peak_mb,
    )
    raw, _ = end_to_end(
        result.raw_latencies,
        result.raw_wall,
        result.probes,
        [raw for _adjusted, raw in setup],
        peak_mb,
    )
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "ops": ops,
        "tail_percentile": tail_pct,
        "setup_samples": len(setup),
        "host_ms": quartiles(result.host_ms),
        "raw": raw,
        "counts": result.counts,
        "problems": problems,
    }
    units = END_TO_END_UNITS
    if args.trace:
        trace_out = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        traced, traced_failed, traced_problems, metrics = traced_pass(
            workload, inputs, trace_out
        )
        failed |= traced_failed | traced.failed
        problems += traced_problems
        if traced.counts != result.counts:
            problems.append("traced counts differ from the untraced run's")
        # Untraced over traced ops_per_s: the work is the same, so walls.
        metrics["trace.overhead"] = traced.wall / result.wall
        metrics["fail_ratio"] = len(failed) / ops
        report["spans"] = str(trace_out.relative_to(ROOT))
        units = per_layer_units()
    report["fail_ratio"] = len(failed) / ops
    report["metrics"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    report["correct"] = not failed and not problems
    report["attempted"] = ops
    report["failed"] = len(failed)
    return report


def print_report(report: dict, *, full: bool = False) -> None:
    print(
        f"# {report['workload']} seed {report['seed']}: {report['ops']} ops, "
        f"{report['failed']} failed (fail_ratio {report['fail_ratio']}), "
        f"op_tail_ms = p{report['tail_percentile']:g}, "
        f"{report['setup_samples']} set-up samples"
    )
    host = report["host_ms"]
    print(
        f"# host kernel ms: median {host['median']:.3f} q1 {host['q1']:.3f} "
        f"q3 {host['q3']:.3f}; times adjusted to {HOST_REFERENCE_MS} ms"
    )
    print(f"# raw (unadjusted) {json.dumps(report['raw'], sort_keys=True)}")
    print(f"# counts {json.dumps(report['counts'], sort_keys=True)}")
    for problem in report["problems"]:
        print(f"# problem: {problem}")
    for name, metric in report["metrics"].items():
        print(f"# {name:48s} {metric['value']:14.6f} {metric['unit']}")
    if full:
        print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )


# -- steadiness ---------------------------------------------------------------


def child_run(args, seed: int) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(args.seconds),
        "--trace",
        "0",
        "--report-json",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=600, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-2])


def repeat(args) -> dict:
    bounds = {}
    benchmark = ROOT / "BENCHMARK.json"
    if benchmark.exists():
        spec = json.loads(benchmark.read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        started = time.perf_counter()
        report = child_run(args, seed)
        runs.append(
            {
                "seed": seed,
                "wall_s": time.perf_counter() - started,
                "host_ms": report["host_ms"]["median"],
                "raw": report["raw"],
                "correct": report["correct"],
                "counts": report["counts"],
                "metrics": {k: v["value"] for k, v in report["metrics"].items()},
            }
        )
        print(f"# run seed {seed}: {json.dumps(runs[-1], sort_keys=True)}", flush=True)
    again = child_run(args, args.seed)
    summary = {}
    for name in END_TO_END_UNITS:
        values = [run["metrics"][name] for run in runs]
        summary[name] = dict(quartiles(values), bound=bounds.get(name))
    host = [run["host_ms"] for run in runs]
    evidence = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": [run["seed"] for run in runs],
        "all_correct": all(run["correct"] for run in runs) and again["correct"],
        "counts_repeat": again["counts"] == runs[0]["counts"],
        "host_speed_ms": quartiles(host),
        "metrics": summary,
        "runs": runs,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"steadiness-{args.workload}.json"
    path.write_text(json.dumps(evidence, indent=2, sort_keys=True) + "\n")
    print(
        f"# {args.workload}: all_correct={evidence['all_correct']} "
        f"counts_repeat={evidence['counts_repeat']} "
        f"host spread={evidence['host_speed_ms']['spread']:.3f}"
    )
    for name, row in summary.items():
        bound = row["bound"]
        verdict = "" if bound is None else (
            "ok" if row["spread"] <= bound / 3 else "WIDE" if row["spread"] > bound else "near"
        )
        print(
            f"# {name:12s} median {row['median']:12.4f} q1 {row['q1']:12.4f} "
            f"q3 {row['q3']:12.4f} spread {row['spread']:.3f} bound {bound} {verdict}"
        )
    print(f"# wrote {path.relative_to(ROOT)}")
    return evidence


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0, help="steadiness mode: N fresh runs"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (the benchmark's tests)"
    )
    parser.add_argument(
        "--report-json",
        action="store_true",
        help="also print the full report (counts included) before the result",
    )
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process, so set and dict layouts —
        # and with them the program's speed — differ between otherwise
        # identical runs.  One fixed salt removes that spread.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.repeat:
        evidence = repeat(args)
        return 0 if evidence["all_correct"] and evidence["counts_repeat"] else 1
    print_report(run_workload(args), full=args.report_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
