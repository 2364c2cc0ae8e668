"""The shared worker fleet: long-lived fork workers that execute seed
batches for whichever campaign the scheduler grants them.

Each worker is a :class:`~repro.robustness.supervisor.WorkerProcess`
serving batch requests ``(campaign, index, spec, seeds)``: it runs every
seed on a harness built from the spec, streams one ``("seed", ...)``
message per completed seed (the engine's heartbeat *and* its journal
feed), then ``("done", ...)`` with the batch's probe count.  Harnesses are
cached per *spec*, not per campaign (:class:`HarnessCache`): every
campaign submitted with the same spec reuses one harness, so a worker
builds each spec once instead of once per campaign — the same
one-harness-many-seeds shape as a direct ``run_campaign``, stretched
across campaigns.  Records stay pure because seed runs are independent:
each record is a function of ``(spec, seed)`` alone, whichever seeds —
of this campaign or of an earlier one — shared the harness before it
(:class:`_BatchServer` lists what a harness carries and why none of it
leaks into a record).  A harness is dropped and closed on any batch
error, and a batch re-executed after a lease expiry or worker death
always lands on a freshly spawned worker, so at-least-once delivery
composes with the journal's seed-keyed dedup into exactly-once,
byte-identical results.

Determinism guard: the cache strips ``quarantine_after`` from the spec's
robustness config before building (:func:`sanitize_spec`).  A
worker-local quarantine would make a seed's record depend on which
*other* seeds shared its harness; the service instead applies the fault
budget post hoc over the journaled faults (see
:mod:`repro.service.engine`).

``SIGTERM`` is an orderly drain (exit 0) so a draining service can tell
shutdown from a crash; anything else that kills a worker surfaces to the
parent as a ``("dead", worker_id, exitcode)`` event with a nonzero code.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing.connection
from typing import Any, Iterable

from repro.robustness.journal import run_to_record
from repro.robustness.supervisor import WorkerDied, WorkerProcess
from repro.service.store import spec_to_json


def sanitize_spec(spec: Any) -> Any:
    """The spec a cached harness is built from: never quarantines locally."""
    robustness = getattr(spec, "robustness", None)
    if robustness is None or robustness.quarantine_after is None:
        return spec
    return dataclasses.replace(
        spec,
        robustness=dataclasses.replace(robustness, quarantine_after=None),
    )


#: Harnesses a cache keeps built at once (specs it recently served).
_HARNESS_CACHE_SIZE = 4


class HarnessCache:
    """Built harnesses keyed by sanitised spec, least recently used first.

    The key is the spec's type plus the canonical JSON of its sanitised
    form (``CampaignSpec`` holds an unhashable ``FuzzerOptions``, so the
    spec itself cannot be a dict key).  Every harness the cache drops —
    by eviction, :meth:`discard` or :meth:`close` — is closed, which
    reaps any supervised probe children it owns.
    """

    def __init__(self) -> None:
        self._harnesses: dict[tuple, Any] = {}  # key -> harness, LRU order

    @staticmethod
    def key(spec: Any) -> tuple:
        canonical = json.dumps(spec_to_json(sanitize_spec(spec)), sort_keys=True)
        return (type(spec).__qualname__, canonical)

    def __len__(self) -> int:
        return len(self._harnesses)

    def get(self, spec: Any) -> Any:
        """The cached harness for *spec*, built on a miss (most recent)."""
        key = self.key(spec)
        harness = self._harnesses.pop(key, None)
        if harness is None:
            harness = sanitize_spec(spec).build()
        self._harnesses[key] = harness  # most recent last
        while len(self._harnesses) > _HARNESS_CACHE_SIZE:
            self._drop(next(iter(self._harnesses)))
        return harness

    def discard(self, spec: Any) -> None:
        """Drop and close *spec*'s harness (it may be mid-probe)."""
        self._drop(self.key(spec))

    def close(self) -> None:
        """Drop and close every harness."""
        for key in list(self._harnesses):
            self._drop(key)

    def _drop(self, key: tuple) -> None:
        harness = self._harnesses.pop(key, None)
        if harness is not None:
            try:
                harness.close()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass


class _BatchServer:
    """A fleet worker's serve function, over one :class:`HarnessCache`.

    A cached harness serves many campaigns, so everything it carries from
    one batch to the next must leave seed records untouched:

    - **metrics** are read only as deltas (a batch's probe count is the
      counter's growth across the batch);
    - the **quarantine budget** is stripped by :func:`sanitize_spec`, so
      the harness's tracker counts faults but never quarantines;
    - the **reference memo** holds only non-faulted outcomes
      (:meth:`~repro.core.harness.Harness.reference_outcome`): a transient
      reference fault is re-probed rather than silencing a target ×
      program for every later campaign;
    - the **probe cache** is on in service specs, as in every
      ``CampaignSpec`` by default (HTTP submissions do not set it); it is
      keyed by content, so it changes which probes execute, never an
      outcome;
    - ``DecorrelatedJitter`` state changes only the length of retry sleeps;
    - the fuzzer, donors and references are read-only across seeds, as in
      any direct campaign.
    """

    def __init__(self) -> None:
        self.harnesses = HarnessCache()

    def __call__(self, request: tuple) -> Iterable[tuple]:
        campaign_id, batch_index, spec, seeds = request
        try:
            harness = self.harnesses.get(spec)
            before = harness.metrics.counter("probes")
            for seed in seeds:
                run = harness.run_seed(seed)
                yield ("seed", campaign_id, batch_index, seed, run_to_record(run))
            probes = harness.metrics.counter("probes") - before
            yield ("done", campaign_id, batch_index, probes)
        except GeneratorExit:
            raise
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            self.harnesses.discard(spec)  # may be mid-probe; rebuild next time
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
