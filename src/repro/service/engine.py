"""The campaign service engine: one loop multiplexing many campaigns over
a shared worker fleet, safe against ``SIGKILL`` at any instant.

Control flow per :meth:`CampaignService.step`:

1. **poll** the fleet (no lock held — the HTTP API stays responsive);
2. **apply events** under the lock: journal each streamed seed record
   (fsync before anything else reacts to it), heartbeat its lease, account
   re-executions; a ``done`` releases the lease; a dead worker or reported
   error fails its batch over to the expiry path;
3. **expire leases**: kill the stalled worker, re-queue the batch's
   unjournaled seeds exactly once, charge the campaign's fault budget;
   a batch that fails twice is poisoned and its campaign FAILED;
4. **restart** missing workers, paced by decorrelated-jitter backoff;
5. **grant** batches to idle workers under the scheduler's fair-share
   rotation (skipping seeds the journal already holds);
6. **finalize** campaigns whose every seed is journaled: REDUCING →
   journaled resume-safe reductions → atomic ``result.json`` → DONE (or
   QUARANTINED when the post-hoc fault budget trips);
7. **enforce budgets** (wall clock, probes) with structured FAILED reasons.

Durability argument: every externally visible step is recorded (fsync)
*before* the service acts on it — seed records before they count toward
completion, state transitions before the phase they announce.  Because
each seed record is a pure function of ``(spec, seed)`` (fleet workers
share one harness per spec and never quarantine locally) and the journal
dedups by seed, any interleaving of crashes, restarts, and re-granted
leases converges to the same journal contents — and ``result.json``
excludes timestamps and execution statistics, so its bytes are identical
across every schedule.  ``SIGTERM`` drains (leased work finishes, fsync,
exit 0); ``SIGKILL`` is just a crash the next start recovers from.

Disk-fault posture: every durable write can fail (ENOSPC, a failed
``fsync``), and the blast radius is always *one campaign*.  A journal,
meta, or result write that raises ``OSError`` moves only the affected
campaign to ``DEGRADED`` (best-effort recorded; remembered in memory when
even that write fails) while every other tenant keeps running — the chaos
matrix in ``tests/service/test_chaos_io.py`` injects a fault at every
individual I/O call and asserts exactly that.  Admission control sheds
new submissions (HTTP 503 + ``Retry-After``) while the store's disk is
below a free-space threshold, and per-tenant circuit breakers stop
serial campaign failures from monopolising the fleet (cooldowns on a
seeded decorrelated-jitter schedule; one HALF_OPEN trial re-closes them).
Workers that ship structurally garbage seed records are killed before the
record can poison the journal.
"""

from __future__ import annotations

import signal
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.core.dedup import ReducedTest
from repro.core.dedup_scale import (
    DedupJournal,
    StreamingDedup,
    reduced_tests_from_record,
)
from repro.observability import as_tracer
from repro.reduce import ReductionConfig
from repro.robustness.breaker import CircuitBreaker
from repro.robustness.journal import (
    ReductionJournal,
    read_jsonl,
    record_to_run,
)
from repro.service import state as st
from repro.service.fleet import HarnessCache, WorkerFleet
from repro.service.leases import LeaseTable, Watchdog
from repro.service.scheduler import (
    Batch,
    FairScheduler,
    Rejection,
    plan_batches,
)
from repro.service.store import CampaignManifest, CampaignStore


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one service instance."""

    workers: int = 2
    batch_size: int = 2
    lease_ttl: float = 30.0
    max_queued: int = 32
    #: Worker deaths / lease expiries a campaign may absorb before FAILED.
    fault_budget: int = 5
    restart_backoff: float = 0.05
    restart_cap: float = 2.0
    jitter_seed: int = 0
    poll_interval: float = 0.05
    #: Shed new submissions (503) while the store's filesystem has less
    #: than this many free bytes; 0 disables shedding.  Running campaigns
    #: continue — admission control protects them from new disk pressure.
    min_disk_free_bytes: int = 0
    #: ``Retry-After`` hint attached to shed rejections.
    shed_retry_after: float = 5.0
    #: Consecutive campaign failures (FAILED/DEGRADED) that open a tenant's
    #: circuit breaker; 0 disables breakers entirely.
    breaker_failures: int = 0
    breaker_base: float = 0.5
    breaker_cap: float = 30.0


@dataclass
class _Active:
    """In-memory bookkeeping for one non-terminal campaign."""

    manifest: CampaignManifest
    journaled: set = field(default_factory=set)
    #: The journaled record dicts, keyed by seed.  Kept in step with
    #: ``journaled`` so finalization never re-reads (and re-checksums) the
    #: journal it just wrote; recovery seeds this cache from disk, so both
    #: paths finalize from equal dicts and write identical result bytes.
    records: dict = field(default_factory=dict)
    started: float | None = None  # monotonic time of the first grant
    probes: int = 0
    requeues: int = 0
    reexecuted_seeds: int = 0
    #: Live streaming dedup over the journal's (unreduced) finding type
    #: sets, fed as seed records land — in-memory only (the journal is
    #: its durable source of truth; recovery re-feeds it in journal
    #: order), so the seed hot path gains no durable writes.  The final
    #: pick set is arrival-order independent, which is what lets the
    #: result payload stay byte-identical across schedules.
    dedup: StreamingDedup = field(default_factory=StreamingDedup)


def _valid_seed_record(record: object, seed: int) -> bool:
    """Is a worker-shipped seed record shaped like something the journal
    (and finalization) can trust?  Structural checks only — semantic truth
    is the deterministic re-execution property's job — but enough that a
    corrupted worker cannot journal a record finalization later chokes on
    or silently misattributes to another seed."""
    if not isinstance(record, dict) or record.get("seed") != seed:
        return False
    if not isinstance(record.get("program"), str):
        return False
    findings = record.get("findings")
    if not isinstance(findings, list):
        return False
    for entry in findings:
        if not isinstance(entry, dict):
            return False
        if "signature" not in entry or "transformations" not in entry:
            return False
    faults = record.get("faults", [])
    if not isinstance(faults, list) or any(
        not isinstance(fault, (list, tuple)) or len(fault) != 2
        for fault in faults
    ):
        return False
    return True


def _finding_to_json(record_entry: dict, *, seed: int, program: str) -> dict:
    """One result/findings entry: the journal's finding shape plus its
    provenance (seed, program) — deterministic, timestamp-free."""
    return {"seed": seed, "program": program, **record_entry}


def _dedup_payload(engine: StreamingDedup) -> dict:
    """A dedup engine's *order-independent* summary for ``result.json``.

    Only multiset-determined fields belong here (the pick set, candidate
    counts) — order-dependent live counters like evictions stay in the
    status API and trace, keeping result bytes identical across every
    schedule of the same campaign."""
    result = engine.result()
    stats = engine.stats
    return {
        "candidates": stats.candidates,
        "skipped_empty": stats.skipped_empty,
        "reports": result.report_count,
        "suppressed": (
            stats.candidates - stats.skipped_empty - result.report_count
        ),
        "picks": [
            {
                "test": test.test_id,
                "types": sorted(test.types),
                "nondeterministic": test.nondeterministic,
            }
            for test in result.to_investigate
        ],
    }


class CampaignService:
    """See module docstring.  Thread-safe: the HTTP layer calls the public
    query/submit methods from handler threads; the engine loop owns the
    fleet."""

    def __init__(
        self,
        store: CampaignStore,
        config: ServiceConfig | None = None,
        *,
        tracer: object | None = None,
    ) -> None:
        self.store = store
        self.config = config or ServiceConfig()
        self.tracer = as_tracer(tracer)
        self._lock = threading.RLock()
        self.scheduler = FairScheduler(max_queued=self.config.max_queued)
        self.leases = LeaseTable(ttl=self.config.lease_ttl)
        self.watchdog = Watchdog(
            restart_backoff=self.config.restart_backoff,
            restart_cap=self.config.restart_cap,
            jitter_seed=self.config.jitter_seed,
            fault_budget=self.config.fault_budget,
        )
        self.fleet = WorkerFleet(self.config.workers)
        #: Finalize's reduction harnesses, one per spec: a reduction is a
        #: pure function of its finding, so campaigns sharing a spec share
        #: the harness (see :class:`~repro.service.fleet._BatchServer` for
        #: why nothing a harness carries leaks into a result).
        self._harnesses = HarnessCache()
        self._active: dict[str, _Active] = {}
        self._draining = False
        self._recovered: list[str] = []
        self._broken: dict[str, list[str]] = {}
        #: Per-tenant circuit breakers (lazily created; empty when disabled).
        self._breakers: dict[str, CircuitBreaker] = {}

    def _breaker(self, tenant: str) -> CircuitBreaker | None:
        """The tenant's breaker (created on first use), or ``None`` when
        breakers are disabled.  Seeded per tenant so cooldown sequences are
        reproducible yet not in lockstep across tenants."""
        if self.config.breaker_failures <= 0:
            return None
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_failures,
                base_delay=self.config.breaker_base,
                cap=self.config.breaker_cap,
                seed=self.config.jitter_seed
                ^ zlib.crc32(tenant.encode("utf-8")),
            )
            self._breakers[tenant] = breaker
        return breaker

    def _note_campaign_outcome(self, tenant: str, *, failed: bool) -> None:
        breaker = self._breaker(tenant)
        if breaker is None:
            return
        before = breaker.state
        if failed:
            breaker.record_failure(time.monotonic())
        else:
            breaker.record_success()
        if breaker.state != before:
            self.tracer.emit(
                "service.breaker",
                tenant=tenant,
                state=breaker.state,
                consecutive_failures=breaker.consecutive_failures,
            )

    # -- submission ----------------------------------------------------------

    def submit(self, manifest: CampaignManifest) -> Rejection | None:
        """Admit a campaign; ``None`` on success, a :class:`Rejection`
        (never persisted — rejected work owns no disk) otherwise."""
        with self._lock:
            if self._draining:
                rejection = Rejection(manifest.campaign_id, "draining")
            elif self.store.exists(manifest.campaign_id):
                rejection = Rejection(
                    manifest.campaign_id, "duplicate-campaign-id"
                )
            elif self.scheduler.queued_campaigns() >= self.config.max_queued:
                rejection = Rejection(manifest.campaign_id, "queue-full")
            else:
                rejection = self._admission_check(manifest)
            if rejection is not None:
                self.tracer.emit(
                    "service.reject",
                    campaign=rejection.campaign_id,
                    reason=rejection.reason,
                )
                return rejection
            try:
                self.store.submit(manifest)
            except OSError as exc:
                # The disk refused the submission; the store already removed
                # the half-born directory, so nothing durable leaks.
                self.tracer.emit(
                    "service.reject",
                    campaign=manifest.campaign_id,
                    reason="store-write-failed",
                    error=str(exc),
                )
                return Rejection(
                    manifest.campaign_id,
                    "store-write-failed",
                    retry_after=self.config.shed_retry_after,
                )
            # A torn leftover that recovery flagged is gone: submit replaced it.
            self._broken.pop(manifest.campaign_id, None)
            batches = plan_batches(
                manifest.campaign_id, manifest.seeds, self.config.batch_size
            )
            assert (
                self.scheduler.admit(
                    manifest.campaign_id, manifest.tenant, batches
                )
                is None
            )
            self._active[manifest.campaign_id] = _Active(
                manifest=manifest,
                dedup=StreamingDedup(tracer=self.tracer),
            )
            self.tracer.emit(
                "service.submit",
                campaign=manifest.campaign_id,
                tenant=manifest.tenant,
                seeds=len(manifest.seeds),
                batches=len(batches),
            )
            return None

    def _admission_check(self, manifest: CampaignManifest) -> Rejection | None:
        """Load shedding and circuit breaking, after every cheaper check.

        Order matters: the breaker's ``allow`` *consumes* the HALF_OPEN
        trial slot, so it must be the very last gate — a submission turned
        away for a full disk must not burn the tenant's one trial.
        """
        if self.config.min_disk_free_bytes > 0:
            free = self.store.disk_free()
            if free < self.config.min_disk_free_bytes:
                self.tracer.emit(
                    "service.shed",
                    campaign=manifest.campaign_id,
                    free_bytes=free,
                    min_free_bytes=self.config.min_disk_free_bytes,
                )
                return Rejection(
                    manifest.campaign_id,
                    "disk-low",
                    retry_after=self.config.shed_retry_after,
                )
        breaker = self._breaker(manifest.tenant)
        if breaker is not None:
            now = time.monotonic()
            if not breaker.allow(now):
                return Rejection(
                    manifest.campaign_id,
                    "circuit-open",
                    retry_after=breaker.retry_after(now),
                )
        return None

    # -- recovery ------------------------------------------------------------

    def recover(self) -> list[str]:
        """Reload every non-terminal campaign from the store (crash
        recovery).  Corrupt campaigns are reported and left untouched —
        loudly broken beats silently merged."""
        with self._lock:
            recovered = []
            for campaign_id in self.store.campaign_ids():
                violations = self.store.check(campaign_id)
                if violations:
                    self._broken[campaign_id] = violations
                    self.tracer.emit(
                        "service.corrupt",
                        campaign=campaign_id,
                        violations=violations,
                    )
                    continue
                current = self.store.state(campaign_id)
                if current is None or st.is_terminal(current):
                    continue
                manifest = self.store.manifest(campaign_id)
                records = self.store.journal(campaign_id).load_records()
                journaled = set(records)
                active = _Active(
                    manifest=manifest,
                    journaled=journaled,
                    records=records,
                    dedup=StreamingDedup(tracer=self.tracer),
                )
                # Re-feed the live picker from the journal in file order —
                # the same arrival order the pre-crash service saw, so the
                # decision stream (not just the order-free pick set) is
                # identical to an uninterrupted run's.
                for record in records.values():
                    active.dedup.ingest_many(
                        reduced_tests_from_record(record)
                    )
                self._active[campaign_id] = active
                remaining = [
                    batch
                    for batch in plan_batches(
                        campaign_id, manifest.seeds, self.config.batch_size
                    )
                    if any(seed not in journaled for seed in batch.seeds)
                ]
                self.scheduler.admit(
                    campaign_id, manifest.tenant, remaining, force=True
                )
                recovered.append(campaign_id)
                self.tracer.emit(
                    "service.recover",
                    campaign=campaign_id,
                    state=current,
                    journaled=len(journaled),
                    remaining_batches=len(remaining),
                )
            self._recovered = recovered
            return recovered

    # -- the scheduling round ------------------------------------------------

    def step(self, *, poll: float | None = None) -> None:
        events = self.fleet.poll(
            self.config.poll_interval if poll is None else poll
        )
        now = time.monotonic()
        with self._lock:
            for event in events:
                self._apply_event(event, now)
            self._expire_leases(now)
            self._restart_workers(now)
            if not self._draining:
                self._grant(now)
            self._enforce_budgets(now)
            if not self._draining:
                self._finalize_ready()

    # -- event handling ------------------------------------------------------

    def _apply_event(self, event: tuple, now: float) -> None:
        kind = event[0]
        if kind == "dead":
            _, worker_id, exitcode = event
            self.tracer.emit(
                "service.worker_dead", worker=worker_id, exitcode=exitcode
            )
            self.watchdog.note_worker_death(now)
            lease = self.leases.release(worker_id)
            if lease is not None:
                self._fail_batch(lease.batch, now, cause="worker-death")
            return
        _, worker_id, payload = event
        tag = payload[0]
        if tag == "seed":
            _, campaign_id, batch_index, seed, record = payload
            active = self._active.get(campaign_id)
            if active is None:
                return  # campaign already failed/finalized; drop the record
            if not _valid_seed_record(record, seed):
                # A worker shipped a garbage verdict (bad pickle survivor,
                # memory corruption, a buggy worker build).  Journaling it
                # would poison every later resume, so: kill the worker,
                # charge the batch, never write the record.
                self.tracer.emit(
                    "service.garbage_record",
                    campaign=campaign_id,
                    batch=batch_index,
                    seed=seed,
                    worker=worker_id,
                )
                lease = self.leases.release(worker_id)
                self.fleet.kill(worker_id)
                self.watchdog.note_worker_death(now)
                if lease is not None:
                    self._fail_batch(lease.batch, now, cause="garbage-record")
                return
            try:
                self.store.journal(campaign_id).append_record(record)
            except OSError as exc:
                self._degrade_campaign(
                    campaign_id,
                    reason="journal-write-failed",
                    detail={"seed": seed, "error": str(exc)},
                )
                return
            if seed in active.journaled:
                # A re-granted lease re-ran this seed: the journal keeps the
                # later (identical) record; only the accounting changes —
                # the live dedup stream saw this seed's findings already.
                active.reexecuted_seeds += 1
            else:
                active.dedup.ingest_many(reduced_tests_from_record(record))
            active.journaled.add(seed)
            active.records[seed] = record
            self.leases.heartbeat(worker_id, now)
            lease = self.leases.lease_for(worker_id)
            if lease is not None:
                lease.completed.add(seed)
        elif tag == "done":
            _, campaign_id, batch_index, probes = payload
            self.leases.release(worker_id)
            self.fleet.mark_idle(worker_id)
            self.watchdog.note_worker_healthy()
            active = self._active.get(campaign_id)
            if active is not None:
                active.probes += int(probes)
        elif tag == "error":
            _, campaign_id, batch_index, message = payload
            self.tracer.emit(
                "service.batch_error",
                campaign=campaign_id,
                batch=batch_index,
                error=message,
            )
            lease = self.leases.release(worker_id)
            self.fleet.mark_idle(worker_id)
            if lease is not None:
                self._fail_batch(lease.batch, now, cause=message)

    def _fail_batch(self, batch: Batch, now: float, *, cause: str) -> None:
        campaign_id = batch.campaign_id
        active = self._active.get(campaign_id)
        if active is None:
            return
        faults = self.watchdog.charge(campaign_id)
        if self.watchdog.exhausted(campaign_id):
            self._fail_campaign(
                campaign_id,
                reason="fault-budget-exhausted",
                detail={"faults": faults, "budget": self.watchdog.fault_budget},
            )
            return
        if self.leases.attempts(batch) >= 2:
            self._fail_campaign(
                campaign_id,
                reason="poisoned-batch",
                detail={"batch": batch.index, "cause": cause},
            )
            return
        remaining = tuple(
            seed for seed in batch.seeds if seed not in active.journaled
        )
        requeued = Batch(campaign_id, batch.index, remaining or batch.seeds)
        self.scheduler.requeue(requeued)
        active.requeues += 1
        self.tracer.emit(
            "service.requeue",
            campaign=campaign_id,
            batch=batch.index,
            seeds=len(requeued.seeds),
            cause=cause,
        )

    def _expire_leases(self, now: float) -> None:
        for lease in self.leases.expired(now):
            self.tracer.emit(
                "service.lease_expired",
                campaign=lease.batch.campaign_id,
                batch=lease.batch.index,
                worker=lease.worker_id,
                attempt=lease.attempt,
            )
            self.fleet.kill(lease.worker_id)
            self.leases.release(lease.worker_id)
            self.watchdog.note_worker_death(now)
            self._fail_batch(lease.batch, now, cause="lease-expired")

    def _restart_workers(self, now: float) -> None:
        need_workers = self.scheduler.has_pending() or bool(
            self.leases.active()
        )
        while (
            need_workers
            and not self._draining
            and self.fleet.alive_count() < self.config.workers
            and self.watchdog.may_restart(now)
        ):
            worker_id = self.fleet.spawn()
            self.tracer.emit("service.worker_restart", worker=worker_id)

    def _grant(self, now: float) -> None:
        for worker_id in self.fleet.idle_workers():
            granted = False
            while not granted:
                batch = self.scheduler.next_batch()
                if batch is None:
                    return
                active = self._active.get(batch.campaign_id)
                if active is None:
                    continue  # campaign failed while the batch was queued
                remaining = tuple(
                    seed
                    for seed in batch.seeds
                    if seed not in active.journaled
                )
                if not remaining:
                    continue  # fully journaled by an earlier lease
                try:
                    if self.store.state(batch.campaign_id) == st.QUEUED:
                        self.store.transition(batch.campaign_id, st.RUNNING)
                except OSError as exc:
                    # Can't durably record RUNNING — granting anyway would
                    # act on an unrecorded transition.  Degrade this
                    # campaign; the worker stays idle for the next batch.
                    self._degrade_campaign(
                        batch.campaign_id,
                        reason="meta-write-failed",
                        detail={"error": str(exc)},
                    )
                    continue
                if active.started is None:
                    active.started = now
                grant = Batch(batch.campaign_id, batch.index, remaining)
                lease = self.leases.grant(grant, worker_id, now)
                if not self.fleet.send_batch(
                    worker_id,
                    grant.campaign_id,
                    grant.index,
                    active.manifest.spec,
                    grant.seeds,
                ):
                    self.leases.release(worker_id)
                    self._fail_batch(grant, now, cause="send-failed")
                    return
                granted = True
                self.tracer.emit(
                    "service.grant",
                    campaign=grant.campaign_id,
                    batch=grant.index,
                    worker=worker_id,
                    seeds=len(grant.seeds),
                    attempt=lease.attempt,
                )

    # -- budgets -------------------------------------------------------------

    def _enforce_budgets(self, now: float) -> None:
        for campaign_id, active in list(self._active.items()):
            manifest = active.manifest
            if (
                manifest.max_seconds is not None
                and active.started is not None
                and now - active.started > manifest.max_seconds
            ):
                self._fail_campaign(
                    campaign_id,
                    reason="time-budget-exhausted",
                    detail={"max_seconds": manifest.max_seconds},
                )
            elif (
                manifest.max_probes is not None
                and active.probes > manifest.max_probes
            ):
                self._fail_campaign(
                    campaign_id,
                    reason="probe-budget-exhausted",
                    detail={
                        "max_probes": manifest.max_probes,
                        "probes": active.probes,
                    },
                )

    def _fail_campaign(
        self, campaign_id: str, *, reason: str, detail: dict | None = None
    ) -> None:
        tenant = self._detach_campaign(campaign_id)
        self._record_terminal(
            campaign_id, st.FAILED, reason=reason, detail=detail
        )
        if tenant is not None:
            self._note_campaign_outcome(tenant, failed=True)
        self.tracer.emit(
            "service.campaign_failed", campaign=campaign_id, reason=reason
        )

    def _degrade_campaign(
        self, campaign_id: str, *, reason: str, detail: dict | None = None
    ) -> None:
        """The *store* failed this campaign (ENOSPC, failed fsync): stop its
        work, record DEGRADED best-effort, leave every other tenant alone."""
        tenant = self._detach_campaign(campaign_id)
        self._record_terminal(
            campaign_id, st.DEGRADED, reason=reason, detail=detail
        )
        if tenant is not None:
            self._note_campaign_outcome(tenant, failed=True)
        self.tracer.emit(
            "service.degraded", campaign=campaign_id, reason=reason
        )

    def _detach_campaign(self, campaign_id: str) -> str | None:
        """Kill the campaign's leased workers and drop every in-memory
        reference; returns its tenant (for breaker accounting) if known."""
        for lease in self.leases.active_for(campaign_id):
            self.fleet.kill(lease.worker_id)
            self.leases.release(lease.worker_id)
        self.scheduler.discard(campaign_id)
        self.leases.forget_campaign(campaign_id)
        self.watchdog.forget_campaign(campaign_id)
        active = self._active.pop(campaign_id, None)
        return active.manifest.tenant if active is not None else None

    def _record_terminal(
        self,
        campaign_id: str,
        terminal: str,
        *,
        reason: str,
        detail: dict | None,
    ) -> None:
        """Durably record a terminal transition, best-effort: when the disk
        is the thing that is broken, the record itself may fail — remember
        the campaign as broken in memory (surfaced via the status API) and
        keep serving other tenants rather than crashing the loop.

        One subtlety the fault matrix found: a failed ``fsync`` can surface
        *after* its record landed in the file, so the on-disk history may
        already hold a terminal state — possibly a different one than we
        are about to record (``DONE`` landed, then the degrade path asks
        for ``DEGRADED``).  The on-disk record is the truth the next boot
        will read; accept it rather than writing an illegal edge."""
        try:
            current = self.store.state(campaign_id)
        except OSError:
            current = None
        if current is not None and st.is_terminal(current):
            if current != terminal:
                self.tracer.emit(
                    "service.terminal_preempted",
                    campaign=campaign_id,
                    recorded=current,
                    intended=terminal,
                    reason=reason,
                )
            return
        try:
            self.store.transition(
                campaign_id, terminal, reason=reason, **(detail or {})
            )
        except OSError as exc:
            self._broken.setdefault(campaign_id, []).append(
                f"{campaign_id}: {terminal} ({reason}) could not be "
                f"recorded: {exc}"
            )
            self.tracer.emit(
                "service.terminal_unrecorded",
                campaign=campaign_id,
                state=terminal,
                error=str(exc),
            )

    # -- finalization --------------------------------------------------------

    def _finalize_ready(self) -> None:
        for campaign_id, active in list(self._active.items()):
            if not set(active.manifest.seeds) <= active.journaled:
                continue
            if self.scheduler.pending_batches(campaign_id):
                continue
            if self.leases.active_for(campaign_id):
                continue
            try:
                self._finalize(campaign_id, active)
            except OSError as exc:
                # The store (journal/meta/result write) failed finalization,
                # not the campaign: DEGRADED, and only for this campaign.
                self._degrade_campaign(
                    campaign_id,
                    reason="finalize-io-error",
                    detail={"error": f"{type(exc).__name__}: {exc}"},
                )
            except Exception as exc:  # noqa: BLE001 - fail loudly, not fatally
                self._fail_campaign(
                    campaign_id,
                    reason="finalize-error",
                    detail={"error": f"{type(exc).__name__}: {exc}"},
                )

    def _finalize(self, campaign_id: str, active: _Active) -> None:
        """REDUCING phase + atomic result write (idempotent: recovery can
        re-enter at any point and rewrite the same bytes)."""
        from repro.robustness import QuarantineTracker

        manifest = active.manifest
        self.store.transition(campaign_id, st.REDUCING)
        records = active.records
        # Findings and faults come straight from the journaled record dicts
        # (cached as they were appended; recovery pre-loads them from disk);
        # the harness (and Finding objects via record_to_run) are only
        # needed when the campaign asked for reduction.
        findings_json: list[dict] = []
        for seed in manifest.seeds:
            record = records[seed]
            for entry in record["findings"]:
                findings_json.append(
                    _finding_to_json(
                        entry, seed=seed, program=record["program"]
                    )
                )
        # Post-hoc quarantine: same budget, same reasons as the live
        # tracker would produce, but computed from the journal so the
        # records themselves never depended on it.
        robustness = getattr(manifest.spec, "robustness", None)
        budget = (
            robustness.quarantine_after if robustness is not None else None
        )
        tracker = QuarantineTracker(budget)
        for seed in manifest.seeds:
            for target_name, kind in records[seed].get("faults", ()):
                tracker.record_fault_kind(target_name, kind)
        quarantined = tracker.report()
        reductions = []
        reduced_dedup: StreamingDedup | None = None
        if manifest.reduce > 0:
            # Post-reduction dedup runs incrementally as each reduction
            # completes, with an fsync-per-decision journal: a SIGKILL
            # anywhere in this phase resumes (reductions *and* dedup
            # decisions replay from their journals) into byte-identical
            # journals and an identical pick set.  Both journals write
            # through the store's FileOps.  Dedup journal I/O failures, and
            # a reduction journal's failure to open, propagate as OSError
            # into the finalize-io-error degrade; a failed reduction
            # decision write or group fsync degrades that reduction.
            reduced_dedup = StreamingDedup(
                tracer=self.tracer,
                journal=DedupJournal(
                    self.store.dedup_journal_path(campaign_id),
                    fileops=self.store.fileops,
                ),
                resume=True,
                stream_key=campaign_id,
            )
            harness = self._harnesses.get(manifest.spec)
            try:
                references = {p.name: p for p in harness.references}
                findings = []
                for seed in manifest.seeds:
                    if len(findings) >= manifest.reduce:
                        break
                    findings.extend(
                        record_to_run(records[seed], references).findings
                    )
                config = ReductionConfig(
                    passes=manifest.reduce_passes or ReductionConfig.passes
                )
                for index, finding in enumerate(findings[: manifest.reduce]):
                    result = harness.reduce_finding(
                        finding,
                        config,
                        journal=ReductionJournal(
                            self.store.reduce_journal_path(campaign_id, index),
                            fileops=self.store.fileops,
                        ),
                        resume=True,
                    )
                    reductions.append(
                        {
                            "target": finding.target_name,
                            "signature": finding.signature,
                            "seed": finding.seed,
                            "initial_length": result.initial_length,
                            "reduced_length": len(result.transformations),
                            "degraded": result.degraded,
                        }
                    )
                    reduced_dedup.ingest(
                        ReducedTest.from_reduction(
                            f"reduce-{index}", finding, result
                        )
                    )
            except BaseException:
                # It may have raised mid-probe: never reuse that harness.
                self._harnesses.discard(manifest.spec)
                raise
            # The harness outlives this campaign; its probe cache should not
            # (the next campaign's findings are new content).
            if harness.probe_cache is not None:
                harness.probe_cache.clear()
        payload = {
            "campaign": campaign_id,
            "seeds": list(manifest.seeds),
            "findings": findings_json,
            "quarantined": quarantined,
            "reductions": reductions,
            # Live triage picks over the journal's unreduced type sets...
            "dedup": _dedup_payload(active.dedup),
        }
        if reduced_dedup is not None:
            # ...and the paper's real Figure 6 picks, over post-reduction
            # type sets (§2.1: dedup is most precise after reduction).
            payload["dedup_reduced"] = _dedup_payload(reduced_dedup)
        self.store.write_result(campaign_id, payload)
        terminal = st.QUARANTINED if quarantined else st.DONE
        self.store.transition(campaign_id, terminal)
        self.tracer.emit(
            "service.finalized",
            campaign=campaign_id,
            state=terminal,
            findings=len(findings_json),
            reductions=len(reductions),
            requeues=active.requeues,
            reexecuted_seeds=active.reexecuted_seeds,
        )
        self.scheduler.discard(campaign_id)
        self.leases.forget_campaign(campaign_id)
        self.watchdog.forget_campaign(campaign_id)
        self._active.pop(campaign_id, None)
        self._note_campaign_outcome(manifest.tenant, failed=False)

    # -- queries (HTTP layer) ------------------------------------------------

    def list_campaigns(self) -> list[dict]:
        with self._lock:
            entries = []
            for campaign_id in self.store.campaign_ids():
                entry = {
                    "campaign": campaign_id,
                    "state": self.store.state(campaign_id),
                }
                if campaign_id in self._broken:
                    entry["violations"] = self._broken[campaign_id]
                entries.append(entry)
            return entries

    def status(self, campaign_id: str) -> dict | None:
        with self._lock:
            if not self.store.exists(campaign_id):
                return None
            current = self.store.state(campaign_id)
            entry: dict = {"campaign": campaign_id, "state": current}
            if campaign_id in self._broken:
                entry["violations"] = self._broken[campaign_id]
                return entry
            active = self._active.get(campaign_id)
            manifest = (
                active.manifest
                if active is not None
                else self.store.manifest(campaign_id)
            )
            records = self.store.journal(campaign_id).load_records()
            entry.update(
                tenant=manifest.tenant,
                seeds=len(manifest.seeds),
                journaled=len(records),
                findings=sum(
                    len(r.get("findings", ())) for r in records.values()
                ),
            )
            if active is not None:
                entry["stats"] = {
                    "probes": active.probes,
                    "requeues": active.requeues,
                    "reexecuted_seeds": active.reexecuted_seeds,
                    "faults": self.watchdog.faults(campaign_id),
                }
                entry["dedup"] = active.dedup.stats_json()
            return entry

    def findings(self, campaign_id: str) -> list[dict] | None:
        """Live findings straight from the journal (works mid-campaign)."""
        with self._lock:
            if not self.store.exists(campaign_id):
                return None
            records = self.store.journal(campaign_id).load_records()
            out: list[dict] = []
            for seed in sorted(records):
                record = records[seed]
                for entry in record.get("findings", ()):
                    out.append(
                        _finding_to_json(
                            entry, seed=seed, program=record.get("program")
                        )
                    )
            return out

    def dedup(self, campaign_id: str) -> dict | None:
        """The campaign's dedup picture: live streaming picks while it
        runs, the recorded ``result.json`` blocks once terminal."""
        with self._lock:
            if not self.store.exists(campaign_id):
                return None
            active = self._active.get(campaign_id)
            if active is not None:
                return {
                    "campaign": campaign_id,
                    "live": True,
                    "stats": active.dedup.stats_json(),
                    **_dedup_payload(active.dedup),
                }
            entry: dict = {"campaign": campaign_id, "live": False}
            try:
                result = self.store.read_result(campaign_id)
            except Exception:  # corrupt result: serve the bare entry
                result = None
            if result is not None:
                for key in ("dedup", "dedup_reduced"):
                    if key in result:
                        entry[key] = result[key]
            return entry

    def report(self, campaign_id: str) -> dict | None:
        """Live repro-report summary over the campaign's journal."""
        from repro.observability.report import _jsonable, summarize

        with self._lock:
            if not self.store.exists(campaign_id):
                return None
            path = self.store.journal_path(campaign_id)
            records = read_jsonl(path) if path.exists() else ()
            return _jsonable(summarize(records))

    def healthz(self) -> dict:
        with self._lock:
            payload = {
                "ok": True,
                "draining": self._draining,
                "workers_alive": self.fleet.alive_count(),
                "active_campaigns": len(self._active),
                "fleet_restarts": self.watchdog.restarts,
            }
            if self.config.min_disk_free_bytes > 0:
                free = self.store.disk_free()
                payload["disk_free_bytes"] = free
                payload["shedding"] = free < self.config.min_disk_free_bytes
            if self._breakers:
                payload["breakers"] = {
                    tenant: breaker.state
                    for tenant, breaker in sorted(self._breakers.items())
                }
            if self._broken:
                payload["broken_campaigns"] = sorted(self._broken)
            return payload

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.recover()
        self.fleet.start()

    def idle(self) -> bool:
        with self._lock:
            return (
                not self.scheduler.has_pending()
                and not self.leases.active()
                and not self._active
            )

    def run_until_idle(self, *, max_seconds: float = 300.0) -> None:
        """Drive the loop until every submitted campaign is terminal (the
        in-process mode tests and the benchmark use)."""
        deadline = time.monotonic() + max_seconds
        while not self.idle():
            if time.monotonic() > deadline:
                raise TimeoutError("service did not go idle in time")
            self.step()

    def request_drain(self) -> None:
        with self._lock:
            if not self._draining:
                self._draining = True
                self.tracer.emit("service.drain_requested")

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def drain(self, *, max_seconds: float = 60.0) -> bool:
        """Finish leased work, stop the fleet cleanly, and return whether
        every worker exited 0.  New grants stop immediately; queued batches
        stay durable in the store for the next start."""
        self.request_drain()
        deadline = time.monotonic() + max_seconds
        while self.leases.active() and time.monotonic() < deadline:
            self.step()
        clean = not self.leases.active()
        self.fleet.stop(drain=True)
        self._harnesses.close()
        self.tracer.emit("service.drained", clean=clean)
        return clean

    def shutdown(self) -> None:
        """Hard stop (tests): kill the fleet, keep the store as-is."""
        self.fleet.stop(drain=False)
        self._harnesses.close()

    def run_forever(self, *, install_signals: bool = True) -> int:
        """The ``repro-serve`` main loop: step until a drain is requested
        (``SIGTERM`` or ``POST /drain``), then drain and exit 0."""
        if install_signals:
            signal.signal(signal.SIGTERM, lambda s, f: self.request_drain())
            signal.signal(signal.SIGINT, lambda s, f: self.request_drain())
        while not self.draining:
            self.step()
        return 0 if self.drain() else 1
