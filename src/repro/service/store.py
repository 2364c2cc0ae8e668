"""Durable per-campaign state: the service's single source of truth on disk.

Layout under the store root::

    campaigns/<id>/meta.jsonl      # submit record + every state transition
    campaigns/<id>/journal.jsonl   # CampaignJournal (one sealed line/seed)
    campaigns/<id>/reduce-<k>.jsonl# ReductionJournal per requested reduction
    campaigns/<id>/result.json     # atomic final result (DONE/QUARANTINED)
    http.json                      # bound address of the HTTP API (if any)
    service-trace.jsonl            # service event trace (if enabled)

Every file here is a view over the one sealed-JSONL
:class:`~repro.robustness.journal.Journal`, sharing its CRC-32 seals,
fsyncs, torn-tail rule and :class:`~repro.robustness.chaos.FileOps` chaos
seam.  ``meta.jsonl`` lines are fsync'd before the service acts on the
transition they record; the submit record and the initial ``QUEUED``
state are written together by one atomic :meth:`Journal.replace`.
Loading folds the record *prefix* up to the first invalid line — a torn
tail is expected and harmless; an invalid line **followed by** valid ones
is interior corruption, and :meth:`CampaignStore.check` (classifying the
lines of the same scan) reports it loudly rather than merging records
across the gap.

``result.json`` is one sealed record written atomically
(:meth:`Journal.replace`) and contains **no timestamps or execution
statistics**, so a campaign's result bytes are a pure function of its spec
and seeds — the property the kill/restart chaos tests assert.  A real
directory-fsync failure **propagates** (see :meth:`FileOps.fsync_dir`):
swallowing EIO there would make every durability claim above dishonest.

Long-lived campaigns cannot eat the disk: when ``compact_meta_bytes`` is
set, a meta history that outgrows it is folded into a two-record snapshot
(the submit record plus one state record carrying the full state ``chain``)
written by :meth:`Journal.replace`, and :meth:`check` validates the
embedded chain exactly as it validates live transition records.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

from repro.robustness.chaos import REAL_FILEOPS, FileOps
from repro.robustness.journal import CampaignJournal, Journal, parse_record
from repro.service import state as st

META_VERSION = 1


def spec_to_json(spec) -> dict:
    """A JSON-round-trippable form of a :class:`~repro.perf.parallel.
    CampaignSpec` (its ``options``/``robustness`` dataclasses inlined)."""
    return dataclasses.asdict(spec)


def spec_from_json(data: dict):
    """Rebuild the :class:`CampaignSpec` persisted by :func:`spec_to_json`.

    Keys the spec no longer has are ignored, such as the flag for the
    removed probe batching that older submit records still carry."""
    from repro.core.fuzzer import FuzzerOptions
    from repro.perf.parallel import CampaignSpec
    from repro.robustness import RobustnessConfig

    def tup(value):
        return tuple(value) if value is not None else None

    options = data.get("options")
    robustness = data.get("robustness")
    return CampaignSpec(
        kind=data["kind"],
        target_names=tuple(data["target_names"]),
        reference_names=tup(data.get("reference_names")),
        donor_names=tup(data.get("donor_names")),
        options=FuzzerOptions(**options) if options is not None else None,
        rounds=data.get("rounds", 25),
        optimized_flow=data.get("optimized_flow", True),
        robustness=(
            RobustnessConfig(**robustness) if robustness is not None else None
        ),
        trace=data.get("trace"),
        probe_cache=data.get("probe_cache", CampaignSpec.probe_cache),
    )


@dataclasses.dataclass(frozen=True)
class CampaignManifest:
    """The submit record, parsed: everything needed to (re)run a campaign."""

    campaign_id: str
    spec: object  # CampaignSpec
    seeds: tuple[int, ...]
    tenant: str = "default"
    #: How many findings (in deterministic seed order) to reduce in the
    #: REDUCING phase; 0 skips reduction entirely.
    reduce: int = 0
    #: Wall-clock budget in seconds (None = unbounded).  Enforced by the
    #: scheduler loop; exhaustion is a FAILED terminal state, not a kill -9.
    max_seconds: float | None = None
    #: Probe budget (None = unbounded).  Counted from worker-reported batch
    #: probe totals; exhaustion fails the campaign before the next grant.
    max_probes: int | None = None
    #: Reduction pass names for the REDUCING phase (empty = the classic
    #: single-pass ddmin reducer rather than the pass pipeline).
    reduce_passes: tuple[str, ...] = ()


class StoreError(RuntimeError):
    """A store invariant was violated (corruption or a service bug)."""


def _state_chain(record: dict) -> list:
    """The state sequence one meta state record attests: a compacted
    snapshot record carries the whole folded ``chain``; a live transition
    record is a chain of one."""
    chain = record.get("chain")
    if chain:
        return list(chain)
    return [record.get("state")]


class CampaignStore:
    """Filesystem-backed campaign state machine (see module docstring)."""

    def __init__(
        self,
        root: Path | str,
        *,
        fileops: FileOps | None = None,
        compact_meta_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.fileops = fileops if fileops is not None else REAL_FILEOPS
        #: Auto-compact a campaign's meta history once it outgrows this many
        #: bytes (None = compact only on explicit :meth:`compact_meta`).
        self.compact_meta_bytes = compact_meta_bytes
        self.campaigns_dir = self.root / "campaigns"
        self.campaigns_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def campaign_dir(self, campaign_id: str) -> Path:
        if not campaign_id or "/" in campaign_id or campaign_id.startswith("."):
            raise ValueError(f"invalid campaign id {campaign_id!r}")
        return self.campaigns_dir / campaign_id

    def meta_path(self, campaign_id: str) -> Path:
        return self.campaign_dir(campaign_id) / "meta.jsonl"

    def journal_path(self, campaign_id: str) -> Path:
        return self.campaign_dir(campaign_id) / "journal.jsonl"

    def journal(self, campaign_id: str) -> CampaignJournal:
        return CampaignJournal(
            self.journal_path(campaign_id), fileops=self.fileops
        )

    def reduce_journal_path(self, campaign_id: str, index: int) -> Path:
        return self.campaign_dir(campaign_id) / f"reduce-{index}.jsonl"

    def dedup_journal_path(self, campaign_id: str) -> Path:
        """The finalize-phase streaming-dedup decision log (see
        :class:`repro.core.dedup_scale.DedupJournal`); resume-safe like
        the reduction journals it sits next to."""
        return self.campaign_dir(campaign_id) / "dedup.jsonl"

    def result_path(self, campaign_id: str) -> Path:
        return self.campaign_dir(campaign_id) / "result.json"

    def campaign_ids(self) -> list[str]:
        return sorted(
            entry.name
            for entry in self.campaigns_dir.iterdir()
            if entry.is_dir()
        )

    def exists(self, campaign_id: str) -> bool:
        """True once the campaign's meta holds a verified record.  Submit
        writes its records in one atomic replace, so a meta with none —
        a torn line left by a crash mid-submit — was never accepted."""
        return any(record is not None for record, _ in self._meta(campaign_id).scan())

    def disk_free(self) -> int:
        """Free bytes under the store root (the load-shedding signal); goes
        through the chaos seam so tests can fake a nearly full disk."""
        return self.fileops.disk_free(self.root)

    # -- meta journal --------------------------------------------------------

    def _meta(self, campaign_id: str) -> Journal:
        return Journal(self.meta_path(campaign_id), fileops=self.fileops)

    def history(self, campaign_id: str) -> list[dict]:
        """The verified meta-record *prefix*: reading stops at the first
        invalid line, so a record is never merged across a corrupt gap."""
        records: list[dict] = []
        for record, _end in self._meta(campaign_id).scan():
            if record is None:
                break  # consistent prefix only; check() classifies this
            records.append(record)
        return records

    # -- lifecycle -----------------------------------------------------------

    def submit(self, manifest: CampaignManifest) -> None:
        """Create the campaign directory and durably record the submission
        (spec, seeds, budgets) plus the initial ``QUEUED`` state.

        Both records land in one :meth:`Journal.replace`, so a crash leaves
        the whole submission or none of it; a leftover meta holding no
        verified record (see :meth:`exists`) is replaced.  If a durable
        write fails (ENOSPC mid-submit), a freshly created directory is
        removed best-effort before the error propagates — a
        rejected-by-the-disk submission must not leave a half-born
        campaign for ``check_all`` to flag forever.
        """
        directory = self.campaign_dir(manifest.campaign_id)
        if self.exists(manifest.campaign_id):
            raise StoreError(
                f"campaign {manifest.campaign_id!r} already exists"
            )
        created = not directory.exists()
        directory.mkdir(parents=True, exist_ok=True)
        try:
            self._meta(manifest.campaign_id).replace(
                [
                    {
                        "v": META_VERSION,
                        "type": "submit",
                        "campaign": manifest.campaign_id,
                        "tenant": manifest.tenant,
                        "seeds": list(manifest.seeds),
                        "reduce": manifest.reduce,
                        "reduce_passes": list(manifest.reduce_passes),
                        "max_seconds": manifest.max_seconds,
                        "max_probes": manifest.max_probes,
                        "spec": spec_to_json(manifest.spec),
                    },
                    {"v": META_VERSION, "type": "state", "state": st.QUEUED},
                ]
            )
            self.fileops.fsync_dir(self.campaigns_dir)
        except OSError:
            if created:
                shutil.rmtree(directory, ignore_errors=True)
            raise

    def manifest(self, campaign_id: str) -> CampaignManifest:
        for record in self.history(campaign_id):
            if record.get("type") == "submit":
                return CampaignManifest(
                    campaign_id=campaign_id,
                    spec=spec_from_json(record["spec"]),
                    seeds=tuple(record["seeds"]),
                    tenant=record.get("tenant", "default"),
                    reduce=record.get("reduce", 0),
                    reduce_passes=tuple(record.get("reduce_passes") or ()),
                    max_seconds=record.get("max_seconds"),
                    max_probes=record.get("max_probes"),
                )
        raise StoreError(f"campaign {campaign_id!r} has no submit record")

    def state(self, campaign_id: str) -> str | None:
        """Current state folded from the meta history (``None`` when it
        holds no state record: a never-accepted submission, see
        :meth:`exists`)."""
        current = None
        for record in self.history(campaign_id):
            if record.get("type") == "state":
                current = record.get("state")
        return current

    def transition(self, campaign_id: str, new_state: str, **fields) -> None:
        """Durably record ``current -> new_state``; illegal edges raise.

        Extra *fields* (e.g. a structured ``reason`` for FAILED) ride along
        in the state record.  The record hits disk (fsync) before this
        returns, so the service never acts on an unrecorded transition.
        """
        current = self.state(campaign_id)
        if current is None:
            raise StoreError(f"campaign {campaign_id!r} has no state yet")
        if current == new_state:
            return  # idempotent re-entry (recovery replays finalization)
        if not st.can_transition(current, new_state):
            raise StoreError(
                f"illegal transition {current} -> {new_state} "
                f"for campaign {campaign_id!r}"
            )
        self._meta(campaign_id).append(
            {"v": META_VERSION, "type": "state", "state": new_state, **fields}
        )
        if (
            self.compact_meta_bytes is not None
            and self.meta_path(campaign_id).stat().st_size
            > self.compact_meta_bytes
        ):
            self.compact_meta(campaign_id)

    # -- meta compaction -----------------------------------------------------

    def compact_meta(self, campaign_id: str) -> bool:
        """Fold the meta history into a two-record snapshot, crash-safely.

        The snapshot keeps the submit record verbatim plus one state record
        whose ``chain`` attests the whole folded state sequence (and whose
        other fields — e.g. a FAILED ``reason`` — come from the last live
        transition record).  Written by :meth:`Journal.replace`, so a crash
        leaves the old history or the new snapshot, never a mix.  Returns
        ``True`` if a snapshot was written.
        """
        records = self.history(campaign_id)
        if not records or records[0].get("type") != "submit":
            return False  # nothing trustworthy to fold; leave for check()
        state_records = [r for r in records[1:] if r.get("type") == "state"]
        if len(state_records) <= 1:
            # Fresh (one bare record) or an untouched snapshot: folding
            # would only churn bytes, so compaction is idempotent.
            return False
        chain: list = []
        for record in state_records:
            chain.extend(_state_chain(record))
        last = dict(state_records[-1])
        last.pop("chain", None)
        snapshot_state = {
            **last,
            "compacted": len(records) - 1,
            "chain": chain,
        }
        self._meta(campaign_id).replace([records[0], snapshot_state])
        return True

    # -- result --------------------------------------------------------------

    def write_result(self, campaign_id: str, payload: dict) -> None:
        """Atomically (re)write ``result.json`` (:meth:`Journal.replace`):
        readers see the old bytes or the new, never a torn file.  The file
        is one sealed record — canonical sorted-keys JSON plus a CRC-32 — so
        bytes stay deterministic and bit rot that still parses is detected."""
        Journal(self.result_path(campaign_id), fileops=self.fileops).replace(
            [payload]
        )

    def read_result(self, campaign_id: str) -> dict | None:
        """The verified result payload; ``None`` if absent, ``StoreError``
        if present but unparseable or failing its checksum."""
        path = self.result_path(campaign_id)
        if not path.exists():
            return None
        record = parse_record(path.read_text(encoding="utf-8", errors="replace"))
        if record is None:
            raise StoreError(
                f"campaign {campaign_id!r}: result.json is corrupt "
                "(torn write or failed checksum)"
            )
        return record

    # -- invariants ----------------------------------------------------------

    def check(self, campaign_id: str) -> list[str]:
        """Invariant violations for one campaign (empty list = healthy).

        Checks: the meta prefix parses and is not interrupted by interior
        corruption; the first record is a submit; the state sequence —
        compacted ``chain`` records expanded in place — starts at QUEUED
        and follows only legal edges; a DONE/QUARANTINED campaign has a
        checksum-valid ``result.json``.  (FAILED and DEGRADED campaigns
        need no result; leftover ``*.tmp`` files from an interrupted atomic
        write are expected debris, not corruption.)
        """
        violations: list[str] = []
        if not self.meta_path(campaign_id).exists():
            return [f"{campaign_id}: no meta.jsonl"]
        entries = self._meta(campaign_id).scan()
        bad = [index for index, (record, _) in enumerate(entries) if record is None]
        if bad and bad != [len(entries) - 1]:
            violations.append(
                f"{campaign_id}: interior meta corruption at line(s) "
                f"{[i + 1 for i in bad]}"
            )
        records = [record for record, _ in entries[: bad[0] if bad else None]]
        if not records or records[0].get("type") != "submit":
            violations.append(f"{campaign_id}: meta does not start with submit")
            return violations
        current = None
        for record in records[1:]:
            if record.get("type") != "state":
                continue
            chain = record.get("chain")
            if chain and chain[-1] != record.get("state"):
                violations.append(
                    f"{campaign_id}: compacted state {record.get('state')!r} "
                    f"does not match its chain tail {chain[-1]!r}"
                )
            for new in _state_chain(record):
                if current is None:
                    if new != st.QUEUED:
                        violations.append(
                            f"{campaign_id}: initial state {new!r} != QUEUED"
                        )
                elif not st.can_transition(current, new):
                    violations.append(
                        f"{campaign_id}: illegal edge {current} -> {new}"
                    )
                current = new
        if current in (st.DONE, st.QUARANTINED):
            try:
                result = self.read_result(campaign_id)
            except StoreError:
                result = None
            if result is None:
                violations.append(
                    f"{campaign_id}: state {current} but no valid result.json"
                )
        return violations

    def check_all(self) -> list[str]:
        violations: list[str] = []
        for campaign_id in self.campaign_ids():
            violations.extend(self.check(campaign_id))
        return violations
