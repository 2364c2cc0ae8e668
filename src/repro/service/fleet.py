"""The shared worker fleet: long-lived fork workers that execute seed
batches for whichever campaign the scheduler grants them.

Each worker is a :class:`~repro.robustness.supervisor.WorkerProcess`
serving batch requests ``(campaign, index, spec, seeds)``: it runs every
seed on a harness built from the spec, streams one ``("seed", ...)``
message per completed seed (the engine's heartbeat *and* its journal
feed), then ``("done", ...)`` with the batch's probe count.  The harness
is cached per campaign — the same one-harness-many-seeds shape as a
direct ``run_campaign`` — because seed runs are independent: each record
stays a pure function of ``(spec, seed)`` regardless of which seeds shared
the harness before it.  The cache is dropped on any batch error, and a
batch re-executed after a lease expiry or worker death always lands on a
freshly spawned worker, so at-least-once delivery composes with the
journal's seed-keyed dedup into exactly-once, byte-identical results.

Determinism guard: the worker strips ``quarantine_after`` from the spec's
robustness config before building.  A worker-local quarantine would make a
seed's record depend on which *other* seeds shared its batch; the service
instead applies the fault budget post hoc over the journaled faults (see
:mod:`repro.service.engine`).

``SIGTERM`` is an orderly drain (exit 0) so a draining service can tell
shutdown from a crash; anything else that kills a worker surfaces to the
parent as a ``("dead", worker_id, exitcode)`` event with a nonzero code.
"""

from __future__ import annotations

import dataclasses
import multiprocessing.connection
from typing import Any, Iterable

from repro.robustness.journal import run_to_record
from repro.robustness.supervisor import WorkerDied, WorkerProcess


def sanitize_spec(spec: Any) -> Any:
    """The spec a fleet worker actually builds: never quarantines locally."""
    robustness = getattr(spec, "robustness", None)
    if robustness is None or robustness.quarantine_after is None:
        return spec
    return dataclasses.replace(
        spec,
        robustness=dataclasses.replace(robustness, quarantine_after=None),
    )


#: Harnesses a worker keeps built at once (campaigns it recently served).
_HARNESS_CACHE_SIZE = 4


class _BatchServer:
    """A fleet worker's serve function, with its per-campaign harness cache."""

    def __init__(self) -> None:
        self.harnesses: dict[str, Any] = {}  # campaign_id -> harness, LRU order

    def _close(self, campaign_id: str) -> None:
        harness = self.harnesses.pop(campaign_id, None)
        if harness is not None:
            try:
                harness.close()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass

    def __call__(self, request: tuple) -> Iterable[tuple]:
        campaign_id, batch_index, spec, seeds = request
        try:
            harness = self.harnesses.pop(campaign_id, None)
            if harness is None:
                harness = sanitize_spec(spec).build()
            self.harnesses[campaign_id] = harness  # most recent last
            while len(self.harnesses) > _HARNESS_CACHE_SIZE:
                self._close(next(iter(self.harnesses)))
            before = harness.metrics.counter("probes")
            for seed in seeds:
                run = harness.run_seed(seed)
                yield ("seed", campaign_id, batch_index, seed, run_to_record(run))
            probes = harness.metrics.counter("probes") - before
            yield ("done", campaign_id, batch_index, probes)
        except GeneratorExit:
            raise
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            self._close(campaign_id)  # may be mid-probe; rebuild next time
            yield ("error", campaign_id, batch_index, f"{type(exc).__name__}: {exc}")


class WorkerFleet:
    """Parent-side handle on the worker pool: spawn, grant, poll, kill.

    The fleet knows nothing about campaigns or leases — it moves batches
    and messages.  Policy (who gets which batch, what expiry means) lives
    in :class:`repro.service.engine.CampaignService`.
    """

    def __init__(self, size: int = 2) -> None:
        self.size = max(1, int(size))
        self._workers: dict[int, WorkerProcess] = {}
        self._busy: set[int] = set()
        self._next_id = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        while len(self._workers) < self.size:
            self.spawn()

    def spawn(self) -> int:
        worker_id = self._next_id
        self._next_id += 1
        self._workers[worker_id] = WorkerProcess(
            _BatchServer(), name=f"fleet-{worker_id}"
        )
        return worker_id

    def kill(self, worker_id: int) -> None:
        """SIGKILL a worker (used on lease expiry) and reap it."""
        self._busy.discard(worker_id)
        worker = self._workers.pop(worker_id, None)
        if worker is not None:
            worker.kill()

    def stop(self, *, drain: bool = True) -> None:
        """Shut the fleet down: politely (stop sentinel, join) when
        draining, SIGKILL otherwise; stragglers are killed either way."""
        for worker_id, worker in list(self._workers.items()):
            if drain:
                worker.stop()
            self.kill(worker_id)

    # -- work ----------------------------------------------------------------

    def idle_workers(self) -> list[int]:
        return sorted(
            worker_id
            for worker_id, worker in self._workers.items()
            if worker_id not in self._busy and worker.process.is_alive()
        )

    def alive_count(self) -> int:
        return sum(1 for w in self._workers.values() if w.process.is_alive())

    def send_batch(
        self,
        worker_id: int,
        campaign_id: str,
        batch_index: int,
        spec: Any,
        seeds: tuple[int, ...],
    ) -> bool:
        worker = self._workers.get(worker_id)
        if worker is None or not worker.send(
            (campaign_id, batch_index, spec, seeds)
        ):
            return False
        self._busy.add(worker_id)
        return True

    def mark_idle(self, worker_id: int) -> None:
        self._busy.discard(worker_id)

    def poll(self, timeout: float) -> list[tuple]:
        """Drain ready worker messages; detect deaths.

        Returns events in arrival order: ``("msg", worker_id, payload)`` for
        each pipe message, ``("dead", worker_id, exitcode)`` for a worker
        whose pipe hit EOF (the worker is reaped and removed; the engine
        decides whether to restart and what to do with its lease).
        """
        events: list[tuple] = []
        conns = {worker.conn: worker_id for worker_id, worker in self._workers.items()}
        if not conns:
            return events
        for conn in multiprocessing.connection.wait(list(conns), timeout=timeout):
            worker_id = conns[conn]
            try:
                events.append(("msg", worker_id, self._workers[worker_id].recv()))
            except WorkerDied as death:
                self.kill(worker_id)
                events.append(("dead", worker_id, death.exitcode))
        return events
