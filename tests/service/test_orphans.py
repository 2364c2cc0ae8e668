"""Forked workers must not outlive a SIGKILLed parent.

A forked child inherits the parent's end of its own request pipe (and of
every pipe opened before it); unless it closes them, its ``recv()`` never
sees EOF once the parent dies, and it lingers forever.  Each test SIGKILLs
a process holding workers and checks that they exit within 5 s.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.robustness.supervisor import MP_CONTEXT

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


def _kill_holder_and_wait(script: str) -> list[int]:
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
        assert len(workers) == 2
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
