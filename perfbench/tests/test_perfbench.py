"""The benchmark's own tests: a tiny-size smoke of each workload, the
output contract, count repeatability, and the benchmark-side checkers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import bisect
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import stats  # noqa: E402
from layers import SpanRecorder  # noqa: E402
from stats import HOST_REFERENCE_MS, HostMeter, percentile, tail  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    SeedOracle,
    cost_stratified_seeds,
    load_pins,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    done = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--smoke", "--report-json",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_contract_and_repeatable_counts(workload):
    first, first_report = smoke(workload, 0)
    second, second_report = smoke(workload, 0)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] is True and first["failed"] == 0
    assert first["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in first["metrics"].values())
    assert first_report["counts"] == second_report["counts"]

    traced, traced_report = smoke(workload, 1)
    assert traced["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    assert traced_report["counts"] == first_report["counts"]
    assert traced["metrics"]["trace.overhead"]["value"] > 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run_bench(
        "--workload", "campaign", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_is_p90_at_100_ops():
    values = [float(v) for v in range(100)]
    assert tail(values) == (90.0, percentile(values, 90.0))
    assert tail(values[:50])[0] == 75.0


def test_host_meter_pauses_at_chunk_boundaries_and_rereads_the_host():
    pauses = []
    meter = HostMeter(between=lambda: pauses.append(len(meter.latencies)))
    for _index, _item in meter.chunked(list(range(25))):
        with meter.timed():
            pass
    assert pauses == list(range(3, 25, 3))  # ten chunks of at most 3
    assert len(meter.latencies) == len(meter.raw_latencies) == 25
    # One reading before the first op, one after each op, one per pause.
    assert len(meter.host_ms) == 1 + 25 + len(pauses)


def test_host_meter_scales_ops_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(stats, "host_kernel_ms", lambda: 2 * HOST_REFERENCE_MS)
    meter = HostMeter()
    with meter.timed():
        time.sleep(0.02)
    with meter.timed(op=False):
        time.sleep(0.01)
    assert meter.latencies[0] == pytest.approx(meter.raw_latencies[0] / 2)
    assert len(meter.latencies) == 1
    assert meter.busy == pytest.approx(meter.raw_busy / 2)


def test_host_meter_tick_clock_scales_and_skips_resumed_stretches(monkeypatch):
    monkeypatch.setattr(stats, "host_kernel_ms", lambda: 2 * HOST_REFERENCE_MS)
    meter = HostMeter()
    assert meter.tick() == (0.0, 0.0)
    time.sleep(0.02)
    adjusted, raw = meter.tick()
    assert raw >= 0.02 and adjusted == pytest.approx(raw / 2)
    time.sleep(0.02)
    assert meter.tick(resume=True) == (adjusted, raw)
    assert meter.since_tick() < 0.02
    # A stretch the CPU spent idle is waiting, which is not scaled.
    monkeypatch.setattr(stats, "cpu_busy_s", lambda cpu: 0.0)
    idle = HostMeter()
    idle.tick()
    time.sleep(0.02)
    adjusted, raw = idle.tick()
    assert adjusted == raw >= 0.02


def test_self_time_subtracts_child_spans():
    recorder = SpanRecorder()

    def inner():
        time.sleep(0.02)

    traced_inner = recorder.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    recorder.wrap("outer", outer)()
    totals = recorder.self_times()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert 0.005 < totals["outer"][1] < 0.03
    assert totals["inner"][1] >= 0.04
    assert recorder.spans[1][3] == 0  # inner's parent is outer


def test_cost_stratified_seeds_draw_one_seed_per_cost_stratum():
    pins = load_pins()
    ordered = sorted(range(pins["pool"]), key=lambda s: (pins["seeds"][str(s)][4], s))
    eligible = ordered[: int(len(ordered) * 0.98)]
    seeds = cost_stratified_seeds(random.Random(7), pins, 100)
    assert len(seeds) == len(set(seeds)) == 100
    rank = {seed: position for position, seed in enumerate(eligible)}
    starts = [i * len(eligible) // 100 for i in range(100)]
    strata = sorted(bisect.bisect_right(starts, rank[s]) - 1 for s in seeds)
    assert strata == list(range(100))
    assert seeds == cost_stratified_seeds(random.Random(7), pins, 100)


def _finding(target, kind, bug, signature="sig", optimized_flow=True):
    return SimpleNamespace(
        target_name=target,
        kind=kind,
        ground_truth_bug=bug,
        signature=signature,
        optimized_flow=optimized_flow,
    )


def test_seed_oracle_rejects_implausible_outcomes():
    oracle = SeedOracle()
    bug = sorted(oracle.enabled["Mesa"])[0]
    good = SimpleNamespace(findings=[_finding("Mesa", "crash", bug)])
    assert oracle.plausible(good, 18)
    assert not oracle.plausible(good, 17)  # probe count off by one
    alien = next(b for b in oracle.enabled["AMD-LLPC"] if b not in oracle.enabled["Mesa"])
    assert not oracle.plausible(SimpleNamespace(findings=[_finding("Mesa", "crash", alien)]), 18)
    # An unattributed wrong result needs a target able to miscompile.
    assert oracle.plausible(SimpleNamespace(findings=[_finding("Mesa", "miscompilation", None)]), 18)
    assert not oracle.plausible(
        SimpleNamespace(findings=[_finding("spirv-opt", "miscompilation", None)]), 18
    )
