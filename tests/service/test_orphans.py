"""Forked workers must not outlive a SIGKILLed parent, nor a stopped
service.

A forked child inherits the parent's end of its own request pipe (and of
every pipe opened before it); unless it closes them, its ``recv()`` never
sees EOF once the parent dies, and it lingers forever.  Each kill test
SIGKILLs a process holding workers and checks that they exit within 5 s.
The drain tests check that a service's cached finalize harness takes its
supervised probe children down with it on ``drain()`` and ``shutdown()``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.fuzzer import FuzzerOptions
from repro.perf.parallel import CampaignSpec
from repro.robustness import RobustnessConfig
from repro.robustness.supervisor import MP_CONTEXT
from repro.service import (
    CampaignManifest,
    CampaignService,
    CampaignStore,
    ServiceConfig,
)
from repro.service import state as st

pytestmark = pytest.mark.skipif(
    MP_CONTEXT.get_start_method() != "fork", reason="needs fork workers"
)

SRC = Path(__file__).resolve().parents[2] / "src"

FLEET = """
import time
from repro.service.fleet import WorkerFleet
fleet = WorkerFleet(2)
fleet.start()
print(*(w.process.pid for w in fleet._workers.values()), flush=True)
time.sleep(120)
"""

SUPERVISED = """
import time
from repro.compilers import make_target
from repro.robustness import RobustnessConfig, SupervisedTarget
config = RobustnessConfig(probe_timeout=5.0)
targets = [SupervisedTarget(make_target(n), config) for n in ("Mesa", "NVIDIA")]
print(*(t._ensure_worker().process.pid for t in targets), flush=True)
time.sleep(120)
"""

#: A 2-worker fleet and two probe children in one holder; ``{first}`` and
#: ``{second}`` fix the fork order, so every child must close the pipe
#: ends of workers forked before it, whichever kind they are.
MIXED = """
import time
from repro.compilers import make_target
from repro.robustness import RobustnessConfig, SupervisedTarget
from repro.service.fleet import WorkerFleet
def fleet():
    fleet = WorkerFleet(2)
    fleet.start()
    return [w.process.pid for w in fleet._workers.values()], fleet
def supervised():
    config = RobustnessConfig(probe_timeout=5.0)
    targets = [SupervisedTarget(make_target(n), config) for n in ("Mesa", "NVIDIA")]
    return [t._ensure_worker().process.pid for t in targets], targets
first, keep_first = {first}()
second, keep_second = {second}()
print(*first, *second, flush=True)
time.sleep(120)
"""


def _exited(pid: int) -> bool:
    """True once *pid* is gone or a zombie waiting for its new parent."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _kill_holder_and_wait(script: str, workers_held: int = 2) -> list[int]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    holder = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    workers: list[int] = []
    try:
        workers = [int(pid) for pid in holder.stdout.readline().split()]
        assert len(workers) == workers_held
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if all(_exited(pid) for pid in workers):
                break
            time.sleep(0.05)
        return [pid for pid in workers if not _exited(pid)]
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
        for pid in workers:  # never leave a straggler behind
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_fleet_workers_exit_when_the_parent_is_killed():
    assert _kill_holder_and_wait(FLEET) == []


def test_supervised_probe_workers_exit_when_the_parent_is_killed():
    assert _kill_holder_and_wait(SUPERVISED) == []


@pytest.mark.parametrize(
    "first, second",
    [("fleet", "supervised"), ("supervised", "fleet")],
    ids=["fleet-first", "supervised-first"],
)
def test_mixed_workers_exit_when_the_parent_is_killed(first, second):
    script = MIXED.format(first=first, second=second)
    assert _kill_holder_and_wait(script, workers_held=4) == []


@pytest.mark.parametrize("stop", ["drain", "shutdown"])
def test_no_probe_children_survive_a_stopped_service(tmp_path, stop):
    spec = CampaignSpec(
        kind="core",
        target_names=("SwiftShader", "NVIDIA"),
        reference_names=("arith_mix_0", "loop_sum_5"),
        donor_names=("donor_math_0",),
        options=FuzzerOptions(max_transformations=40),
        robustness=RobustnessConfig(probe_timeout=5.0),
    )
    service = CampaignService(
        CampaignStore(tmp_path / "store"),
        ServiceConfig(workers=1, batch_size=2, poll_interval=0.02),
    )
    service.start()
    try:
        assert service.submit(CampaignManifest("c0", spec, (0, 1), reduce=1)) is None
        service.run_until_idle(max_seconds=120)
        assert service.store.state("c0") == st.DONE
        # The fleet worker plus the cached finalize harness's probe child.
        assert len(multiprocessing.active_children()) >= 2
        if stop == "drain":
            assert service.drain(max_seconds=30.0)
    finally:
        service.shutdown()
    assert multiprocessing.active_children() == []
