"""The shared worker fleet: long-lived fork workers that execute seed
batches for whichever campaign the scheduler grants them.

Each worker is a loop over its pipe: receive ``("batch", campaign, index,
spec, seeds)``, run every seed on a harness built from the spec, stream
one ``("seed", ...)`` message per completed seed (the engine's heartbeat
*and* its journal feed), then ``("done", ...)`` with the batch's probe
count.  The harness is cached per campaign — the same one-harness-many-
seeds shape as a direct ``run_campaign`` — because seed runs are
independent: each record stays a pure function of ``(spec, seed)``
regardless of which seeds shared the harness before it.  The cache is
dropped on any batch error, and a batch re-executed after a lease expiry
or worker death always lands on a freshly spawned worker, so at-least-once
delivery composes with the journal's seed-keyed dedup into exactly-once,
byte-identical results.

Determinism guard: the worker strips ``quarantine_after`` from the spec's
robustness config before building.  A worker-local quarantine would make a
seed's record depend on which *other* seeds shared its batch; the service
instead applies the fault budget post hoc over the journaled faults (see
:mod:`repro.service.engine`).

``SIGTERM`` is an orderly drain (flush the pipe, exit 0) so a draining
service can tell shutdown from a crash; anything else that kills a worker
surfaces to the parent as pipe EOF plus a nonzero exit code.
"""

from __future__ import annotations

import dataclasses
import multiprocessing.connection
import os
from dataclasses import dataclass
from typing import Any

from repro.robustness.journal import run_to_record
from repro.robustness.supervisor import MP_CONTEXT, _install_drain_handler


def _sanitize_spec(spec: Any) -> Any:
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


def _fleet_worker_main(
    conn: multiprocessing.connection.Connection, worker_id: int
) -> None:
    """Worker loop (runs in the forked child; never returns normally)."""
    _install_drain_handler(conn)
    harnesses: dict[str, Any] = {}  # campaign_id -> harness, LRU order

    def close_harness(campaign_id: str) -> None:
        harness = harnesses.pop(campaign_id, None)
        if harness is not None:
            try:
                harness.close()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            os._exit(0)  # parent went away: nothing left to report to
        if request is None or request[0] == "stop":
            for campaign_id in list(harnesses):
                close_harness(campaign_id)
            try:
                conn.close()
            except OSError:
                pass
            os._exit(0)
        if request[0] != "batch":  # pragma: no cover - protocol bug
            continue
        _, campaign_id, batch_index, spec, seeds = request
        try:
            harness = harnesses.pop(campaign_id, None)
            if harness is None:
                harness = _sanitize_spec(spec).build()
            harnesses[campaign_id] = harness  # re-insert: most recent last
            while len(harnesses) > _HARNESS_CACHE_SIZE:
                close_harness(next(iter(harnesses)))
            before = harness.metrics.counter("probes")
            for seed in seeds:
                run = harness.run_seed(seed)
                conn.send(
                    ("seed", campaign_id, batch_index, seed, run_to_record(run))
                )
            probes = harness.metrics.counter("probes") - before
            conn.send(("done", campaign_id, batch_index, probes))
        except (BrokenPipeError, OSError):
            os._exit(0)  # parent is gone mid-batch; work will be re-leased
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            close_harness(campaign_id)  # may be mid-probe; rebuild next time
            try:
                conn.send(
                    (
                        "error",
                        campaign_id,
                        batch_index,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
            except (BrokenPipeError, OSError):
                os._exit(0)


@dataclass
class _FleetWorker:
    worker_id: int
    process: Any
    conn: multiprocessing.connection.Connection
    busy: bool = False


class WorkerFleet:
    """Parent-side handle on the worker pool: spawn, grant, poll, kill.

    The fleet knows nothing about campaigns or leases — it moves batches
    and messages.  Policy (who gets which batch, what expiry means) lives
    in :class:`repro.service.engine.CampaignService`.
    """

    def __init__(self, size: int = 2) -> None:
        self.size = max(1, int(size))
        self._workers: dict[int, _FleetWorker] = {}
        self._next_id = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        while len(self._workers) < self.size:
            self.spawn()

    def spawn(self) -> int:
        worker_id = self._next_id
        self._next_id += 1
        parent_conn, child_conn = MP_CONTEXT.Pipe()
        process = MP_CONTEXT.Process(
            target=_fleet_worker_main,
            args=(child_conn, worker_id),
            daemon=True,
            name=f"fleet-{worker_id}",
        )
        process.start()
        child_conn.close()
        self._workers[worker_id] = _FleetWorker(worker_id, process, parent_conn)
        return worker_id

    def kill(self, worker_id: int) -> None:
        """SIGKILL a worker (used on lease expiry) and reap it."""
        worker = self._workers.pop(worker_id, None)
        if worker is None:
            return
        try:
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=2.0)
        except (ValueError, OSError):  # pragma: no cover - already gone
            pass
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def stop(self, *, drain: bool = True) -> None:
        """Shut the fleet down: politely (stop sentinel, join) when
        draining, SIGKILL otherwise; stragglers are killed either way."""
        for worker in list(self._workers.values()):
            if drain:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in list(self._workers.values()):
            try:
                worker.process.join(timeout=2.0 if drain else 0.0)
            except (ValueError, OSError):  # pragma: no cover
                pass
        for worker_id in list(self._workers):
            self.kill(worker_id)

    # -- work ----------------------------------------------------------------

    def idle_workers(self) -> list[int]:
        return sorted(
            worker_id
            for worker_id, worker in self._workers.items()
            if not worker.busy and worker.process.is_alive()
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
        if worker is None:
            return False
        try:
            worker.conn.send(("batch", campaign_id, batch_index, spec, seeds))
        except (BrokenPipeError, OSError):
            return False
        worker.busy = True
        return True

    def mark_idle(self, worker_id: int) -> None:
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.busy = False

    def poll(self, timeout: float) -> list[tuple]:
        """Drain ready worker messages; detect deaths.

        Returns events in arrival order: ``("msg", worker_id, payload)`` for
        each pipe message, ``("dead", worker_id, exitcode)`` for a worker
        whose pipe hit EOF (the worker is reaped and removed; the engine
        decides whether to restart and what to do with its lease).
        """
        events: list[tuple] = []
        conns = {
            worker.conn: worker_id
            for worker_id, worker in self._workers.items()
        }
        if not conns:
            return events
        ready = multiprocessing.connection.wait(
            list(conns), timeout=timeout
        )
        for conn in ready:
            worker_id = conns[conn]
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                worker = self._workers.get(worker_id)
                exitcode = None
                if worker is not None:
                    try:
                        worker.process.join(timeout=2.0)
                        exitcode = worker.process.exitcode
                    except (ValueError, OSError):  # pragma: no cover
                        pass
                self.kill(worker_id)
                events.append(("dead", worker_id, exitcode))
                continue
            events.append(("msg", worker_id, payload))
        return events
