"""Percentiles, the op-latency tail, and the host-speed meter."""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

#: Candidate tail percentiles, highest first.  p95 is left out: runs are
#: sized for p90, and a run of 200-odd ops would otherwise report a p95
#: estimated from its ten costliest ops, which differ from seed to seed.
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Loop iterations of the host-speed kernel.
KERNEL_ITERATIONS = 8000
#: The kernel's time in ms on the host the adjusted figures refer to: a
#: fast phase of the two-core Xeon KVM guest the benchmark was written on.
HOST_REFERENCE_MS = 1.35
#: Ops per run are split into this many chunks; a fresh set-up is timed
#: at every chunk boundary (see ``run.py``).
CHUNKS = 10
#: Longest stretch of :meth:`HostMeter.tick` time between two readings
#: that a caller should let pass.
TICK_SECONDS = 0.25


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> tuple[float, float]:
    """``(pct, value)``: the highest ladder percentile with at least
    :data:`TAIL_MIN_BEYOND` samples above it (p50 when too few samples)."""
    for pct in TAIL_LADDER:
        value = percentile(values, pct)
        if sum(1 for v in values if v > value) >= TAIL_MIN_BEYOND:
            return pct, value
    return 50.0, percentile(values, 50.0)


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (``statistics.quantiles``), and
    the quartile spread as a share of the median."""
    if len(values) < 2:
        value = values[0]
        return {"median": value, "q1": value, "q3": value, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def host_kernel_ms() -> float:
    """Best of two timings of a fixed pure-Python kernel, in ms.  The
    kernel never touches the program under test, so a change in it is the
    machine's; the best of two drops a timing an interrupt landed in."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        acc = 0
        table = {}
        for i in range(KERNEL_ITERATIONS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 1023] = i
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def cpu_busy_s(cpu: int | None) -> float | None:
    """Seconds CPU *cpu* has been busy since boot, steal included
    (``/proc/stat``, in clock ticks); ``None`` where it cannot be read."""
    if cpu is None:
        return None
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                if line.startswith(f"cpu{cpu} "):
                    user, nice, system, _idle, _iowait, irq, softirq, steal = (
                        int(value) for value in line.split()[1:9]
                    )
                    busy = user + nice + system + irq + softirq + steal
                    return busy / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError):
        pass
    return None


class HostMeter:
    """Times a run's ops, each adjusted to the reference host speed.

    A virtual CPU of a shared machine runs pure Python at one of two
    speeds about 1.7x apart, in phases of a few seconds, and the share
    of slow time changes from one quarter hour to the next.  Wall time
    alone would measure that share as much as the program.  So the kernel
    is timed right before and right after every op, on the same CPU, and
    the op's time is scaled by ``HOST_REFERENCE_MS / kernel``: a slow
    phase slows the kernel as much as the op, a slower program does not
    slow the kernel.  The raw times are kept alongside.

    Ops that overlap (the service's closed loop) are timed with
    :meth:`tick` instead: a clock that reads the kernel at every tick.
    Between two ticks, the time the pinned CPU was busy is scaled by the
    mean of their two readings and the time it sat idle (waiting on a
    poll, an fsync, a pipe) counts as it is: a slow phase slows work, not
    waiting.

    *between* is called at each chunk boundary of :meth:`chunked`; the
    kernel is re-read after it, so untimed work never spans an op.
    """

    def __init__(self, between: Callable[[], None] | None = None) -> None:
        self.between = between
        affinity = os.sched_getaffinity(0)
        #: The CPU the process is pinned to, if it is pinned to one.
        self.cpu = min(affinity) if len(affinity) == 1 else None
        #: Adjusted and raw seconds of every timed op, in order.
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        #: Adjusted and raw seconds of all timed work (ops and extras).
        self.busy = 0.0
        self.raw_busy = 0.0
        #: Every kernel reading, in ms.
        self.host_ms: list[float] = []
        self._before: float | None = None
        #: ``(perf_counter, CPU busy seconds, reading)`` of the last tick.
        self._tick: tuple[float, float | None, float] | None = None

    def tick(self, *, resume: bool = False) -> tuple[float, float]:
        """Read the host and return ``(adjusted, raw)`` seconds of tick
        time so far.  The stretch since the previous tick is added to
        :attr:`busy` and :attr:`raw_busy`, unless *resume* marks it as
        untimed work (a chunk boundary).  The reading itself is untimed."""
        now = time.perf_counter()
        cpu_now = cpu_busy_s(self.cpu)
        reading = self.read()
        if self._tick is not None and not resume:
            last, cpu_last, last_reading = self._tick
            raw = now - last
            worked = raw
            if cpu_now is not None and cpu_last is not None:
                worked = min(raw, max(0.0, cpu_now - cpu_last))
            scale = HOST_REFERENCE_MS * 2.0 / (last_reading + reading)
            self.busy += worked * scale + (raw - worked)
            self.raw_busy += raw
        self._tick = (time.perf_counter(), cpu_busy_s(self.cpu), reading)
        return self.busy, self.raw_busy

    def since_tick(self) -> float:
        """Seconds since the last :meth:`tick`."""
        return time.perf_counter() - self._tick[0] if self._tick else 0.0

    def chunked(self, items: list) -> Iterator[tuple[int, object]]:
        """``(index, item)`` over *items*, calling :attr:`between` at each
        of the :data:`CHUNKS` - 1 inner boundaries."""
        size = max(1, -(-len(items) // CHUNKS))
        for index, item in enumerate(items):
            if index and index % size == 0:
                self.pause()
            yield index, item

    def pause(self) -> None:
        if self.between is not None:
            self.between()
        self._before = None

    def read(self) -> float:
        reading = host_kernel_ms()
        self.host_ms.append(reading)
        return reading

    @contextmanager
    def timed(self, *, op: bool = True) -> Iterator[None]:
        """Time the body; ``op=False`` counts it in :attr:`busy` only (work
        that is not one of the run's ops, such as triage's final dedup)."""
        before = self._before if self._before is not None else self.read()
        started = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - started
            after = self.read()
            self._before = after
            adjusted = raw * HOST_REFERENCE_MS * 2.0 / (before + after)
            self.busy += adjusted
            self.raw_busy += raw
            if op:
                self.latencies.append(adjusted)
                self.raw_latencies.append(raw)


def chunks(items: list) -> Iterable[list]:
    """*items* split like :meth:`HostMeter.chunked` splits them."""
    size = max(1, -(-len(items) // CHUNKS))
    return [items[i : i + size] for i in range(0, len(items), size)]
