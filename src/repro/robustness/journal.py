"""One sealed-JSONL :class:`Journal` and the keyed views over it.

:class:`Journal` is the only code that seals and verifies lines, repairs a
torn tail, truncates, fsyncs, and atomically rewrites a journal file, all
through the :class:`~repro.robustness.chaos.FileOps` chaos seam.  Every
line carries a mandatory CRC-32 (``crc``) over its canonical JSON, so a
flipped byte that still parses is rejected, never merged (see
:func:`seal_record` / :func:`parse_record`).  There is one torn-tail rule:
an unterminated line is never a record, and the next append truncates it
in place — so a journal resumed after a ``SIGKILL`` catches up
byte-identically to an uninterrupted run's.

The views keep their own read policies:

* :class:`CampaignJournal` — one self-contained record per completed seed,
  replayed by ``Harness.run_campaign(journal=..., resume=True)`` instead of
  re-fuzzing.  Keyed by seed: corrupt lines are skipped (their seeds re-run)
  and a later record for the same seed wins.  Findings reference their
  program *by name*; the loader rebuilds it from the harness corpus::

      {"v": 1, "seed": 3, "program": "loops_nested", "transformation_count": 41,
       "skipped_targets": [...], "faults": [["NVIDIA", "timeout"], ...],
       "findings": [{"target": ..., "signature": ..., "kind": ...,
                     "optimized_flow": ..., "nondeterministic": ...,
                     "ground_truth_bug": ..., "inputs": {...},
                     "transformations": [...]}]}

* :class:`ReductionJournal` — a header binding the file to the initial
  transformation sequence, then one record per oracle *decision*, read
  back keyed by candidate.  Delta debugging is a deterministic function of
  its verdict sequence, so a resumed reduction appends exactly the records
  the killed run never wrote and ends with a journal (and
  :class:`~repro.core.reducer.ReductionResult`) byte-identical to an
  uninterrupted run's.
* :class:`~repro.core.dedup_scale.DedupJournal` and the campaign service's
  ``meta.jsonl`` / ``result.json`` (:mod:`repro.service.store`).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.robustness.chaos import REAL_FILEOPS, FileOps

# ``repro.core`` imports this module while its package initialises (the
# streaming dedup journal seals records with it), so the transformation
# codecs below are imported where they are used, never at module level.
if TYPE_CHECKING:  # pragma: no cover
    from repro.core.harness import Finding, SeedRun

JOURNAL_VERSION = 1
REDUCTION_JOURNAL_VERSION = 1


def seal_record(record: dict) -> bytes:
    """One journal line for *record*: canonical JSON plus a ``crc`` field.

    The CRC-32 covers the canonical (sorted-keys) JSON of the record
    *without* the ``crc`` field, so a loader can recompute it from the
    parsed payload.  Torn trailing lines were always caught by the JSON
    parser; the checksum extends that to *interior* corruption — a flipped
    byte that still happens to parse (``"seed": 3`` -> ``"seed": 7``) now
    fails verification instead of silently resurfacing as a wrong record.
    """
    sealed = {**record, "crc": _crc(record)}
    return json.dumps(sealed, sort_keys=True).encode("utf-8") + b"\n"


def _crc(record: dict) -> int:
    body = json.dumps(record, sort_keys=True)
    return zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF


def parse_record(line: str) -> dict | None:
    """Parse and verify one journal line; ``None`` for anything corrupt.

    The checksum is *mandatory*: a record without a valid ``crc`` is
    rejected, because treating crc-less lines as legacy would let a single
    flipped byte in the ``"crc"`` key itself silently disarm verification
    (the corruption fuzz tests construct exactly that line).  Journals
    written before checksumming simply re-run their seeds.  The returned
    dict never contains the ``crc`` field.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None  # empty, truncated by a mid-write kill, or garbage
    return _verified(record)


def _verified(record: object) -> dict | None:
    """*record* without its ``crc`` if the checksum holds, else ``None``."""
    if not isinstance(record, dict):
        return None
    if record.pop("crc", None) != _crc(record):
        return None  # interior corruption (or a pre-checksum record)
    return record


def read_jsonl(path: Path | str) -> Iterator[dict]:
    """Every JSON-object line of a trace or journal file, in file order —
    the lenient reader behind ``repro-report``, :func:`~repro.observability.
    tracer.read_trace` and the streaming dedup frontend.  Unparseable lines
    are skipped, and a line carrying a ``crc`` must verify."""
    with Path(path).open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # blank, torn, or garbage
            if isinstance(record, dict) and "crc" in record:
                record = _verified(record)
            if isinstance(record, dict):
                yield record


def run_to_record(run: "SeedRun") -> dict:
    from repro.core.transformation import sequence_to_json

    return {
        "v": JOURNAL_VERSION,
        "seed": run.seed,
        "program": run.program_name,
        "transformation_count": run.transformation_count,
        "skipped_targets": list(run.skipped_targets),
        "faults": [list(fault) for fault in run.faults],
        "findings": [
            {
                "target": f.target_name,
                "signature": f.signature,
                "kind": f.kind,
                "optimized_flow": f.optimized_flow,
                "nondeterministic": f.nondeterministic,
                "ground_truth_bug": f.ground_truth_bug,
                "inputs": dict(f.inputs),
                "transformations": sequence_to_json(f.transformations),
            }
            for f in run.findings
        ],
    }


def record_to_run(record: dict, references_by_name: dict) -> "SeedRun":
    from repro.core.harness import Finding, SeedRun
    from repro.core.transformation import sequence_from_json

    program_name = record["program"]
    program = references_by_name.get(program_name)
    if program is None and record["findings"]:
        raise KeyError(
            f"journal references program {program_name!r}, which is not in "
            "this harness's corpus — resume with the harness that wrote it"
        )
    run = SeedRun(
        program_name=program_name,
        seed=record["seed"],
        transformation_count=record["transformation_count"],
        skipped_targets=tuple(record.get("skipped_targets", ())),
        faults=tuple(
            (target, kind) for target, kind in record.get("faults", ())
        ),
    )
    # A seed's findings share one variant: decode each distinct sequence
    # once, so they share transformation objects as in-process findings do
    # (identity-keyed replay work then carries across them).
    decoded: dict[str, list] = {}
    for entry in record["findings"]:
        encoded = json.dumps(entry["transformations"], sort_keys=True)
        if encoded not in decoded:
            decoded[encoded] = sequence_from_json(entry["transformations"])
        run.findings.append(
            Finding(
                target_name=entry["target"],
                program_name=program_name,
                seed=record["seed"],
                signature=entry["signature"],
                kind=entry["kind"],
                optimized_flow=entry["optimized_flow"],
                transformations=list(decoded[encoded]),
                original=program.module,
                inputs=dict(entry["inputs"]),
                ground_truth_bug=entry.get("ground_truth_bug"),
                nondeterministic=entry.get("nondeterministic", False),
            )
        )
    return run


class Journal:
    """One append-only sealed-JSONL file (see the module docstring).

    Writes go through *fileops* (default: the real OS calls), so the chaos
    tests can make any single ``open``/``write``/``fsync``/``truncate``/
    ``replace`` fail or tear; reads stay direct.
    """

    def __init__(
        self, path: Path | str, *, fileops: FileOps | None = None
    ) -> None:
        self.path = Path(path)
        self.fileops = fileops if fileops is not None else REAL_FILEOPS

    def append(self, record: dict) -> None:
        """Seal *record* and append it, fsync'd.  An unterminated tail (a
        record torn by a mid-write kill) is truncated in place first; a
        healthy file costs one read of its last byte."""
        line = seal_record(record)
        fileops = self.fileops
        with fileops.open(self.path, "a+b") as handle:
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.seek(0)
                    fileops.truncate(handle, handle.read().rfind(b"\n") + 1)
            fileops.write(handle, line)
            fileops.fsync(handle)

    def scan(self) -> list[tuple[dict | None, int]]:
        """``(record, end offset)`` per line, in file order; ``record`` is
        ``None`` for a torn, garbled or checksum-failing line.  An
        unterminated tail is never a record: it scans as ``None``."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        *lines, tail = data.split(b"\n")
        entries: list[tuple[dict | None, int]] = []
        end = 0
        for raw in lines:
            end += len(raw) + 1
            entries.append((parse_record(raw.decode("utf-8", "replace")), end))
        if tail:
            entries.append((None, len(data)))
        return entries

    def start(
        self, header: dict, *, bind: str, resume: bool, mismatch: str
    ) -> list[tuple[dict | None, int]]:
        """Open a header-bound journal: the :meth:`scan` entries, header
        first, when resuming a file whose first line is a valid header; a
        header whose *bind* field differs raises ``ValueError(mismatch)``.
        Otherwise (fresh run, or no valid header) the file is reset to just
        *header* and ``[]`` is returned.  A header whose version ``v``
        differs from *header*'s is no valid header: its records may not
        mean what this version's do."""
        if resume:
            entries = self.scan()
            first = entries[0][0] if entries else None
            if (
                first is not None
                and first.get("header")
                and first.get("v") == header["v"]
            ):
                if first.get(bind) != header[bind]:
                    raise ValueError(mismatch)
                return entries
        fileops = self.fileops
        with fileops.open(self.path, "wb") as handle:
            fileops.write(handle, seal_record(header))
            fileops.fsync(handle)
        return []

    def truncate(self, offset: int) -> None:
        fileops = self.fileops
        with fileops.open(self.path, "r+b") as handle:
            fileops.truncate(handle, offset)
            fileops.fsync(handle)

    def replace(self, records: Sequence[dict]) -> None:
        """Atomically rewrite the file as *records* (tmp file, fsync,
        ``os.replace``, directory fsync): a crash leaves the old file or
        the new one, and a torn tmp is invisible to every reader."""
        fileops = self.fileops
        tmp = self.path.with_name(self.path.name + ".tmp")
        with fileops.open(tmp, "wb") as handle:
            for record in records:
                fileops.write(handle, seal_record(record))
            fileops.fsync(handle)
        fileops.replace(tmp, self.path)
        fileops.fsync_dir(self.path.parent)


class CampaignJournal:
    """Per-seed records over a :class:`Journal`, keyed by seed."""

    def __init__(
        self, path: Path | str, *, fileops: FileOps | None = None
    ) -> None:
        self.file = Journal(path, fileops=fileops)

    def append(self, run: "SeedRun") -> None:
        self.append_record(run_to_record(run))

    def append_record(self, record: dict) -> None:
        """Append one already-serialized seed record (fsync-per-line).

        The campaign service's fleet workers ship records (not ``SeedRun``
        objects) over their result pipes; the service appends them through
        this path so worker and CLI journals are interchangeable.
        """
        self.file.append(record)

    def append_runs(self, runs) -> None:
        for run in runs:
            self.append(run)

    def load_records(self) -> dict[int, dict]:
        """Verified records keyed by seed; corrupt lines (torn, garbled, or
        failing their checksum) are skipped — their seeds are simply re-run.
        A later valid record for the same seed wins (re-executed lease
        batches journal identical records, so the duplicate is harmless)."""
        records: dict[int, dict] = {}
        for record, _end in self.file.scan():
            if record is not None and "seed" in record:
                records[record["seed"]] = record
        return records

    def load(self, references_by_name: dict) -> dict[int, "SeedRun"]:
        """Completed seeds, keyed by seed.  Malformed (e.g. kill-truncated)
        lines are skipped; a later valid record for the same seed wins."""
        return {
            seed: record_to_run(record, references_by_name)
            for seed, record in self.load_records().items()
        }


class ReductionJournal(Journal):
    """Per-candidate reduction verdicts, a header-bound :class:`Journal`.

    Line 1 is a header ``{"header": true, "sequence": <key>, "length": n}``
    binding the file to one initial transformation sequence; every further
    line records one oracle decision::

        {"v": 1, "key": <candidate content key>, "n": <candidate length>,
         "verdict": bool, "probes": k, "escalations": e, "fault_retries": r,
         "disagreements": d, "faults": {kind: count}, "faulted": bool}

    Candidates are keyed by *content* (the SHA-1 of their canonical JSON), so
    keys survive process death — a resumed reduction rebuilds the same
    transformation objects from the finding and looks decisions up by value.
    """

    #: The pass pipeline's ``{"pipeline": [...], "giveup": g}`` config
    #: record, as :meth:`prepare` found it (``None``: not written yet).
    config: dict | None = None

    @staticmethod
    def candidate_key(candidate: Sequence, memo: dict | None = None) -> str:
        """A process-stable content fingerprint of a candidate subsequence.

        The SHA-1 of ``json.dumps(sequence_to_json(candidate),
        sort_keys=True)``, built from each transformation's own canonical
        JSON (the list brackets and ``", "`` separators are exactly what
        ``json.dumps`` writes around them).  A reduction passes one *memo*
        for all its lookups: it maps ``id(transformation)`` to the object
        (held, so the id cannot be reused) and its JSON, so each
        transformation is serialised once per reduction instead of once per
        candidate.  Opaque test doubles (the reducer treats elements as
        black boxes) fall back to their ``repr``.
        """
        memo = {} if memo is None else memo
        parts = []
        try:
            for item in candidate:
                entry = memo.get(id(item))
                if entry is None:
                    entry = memo[id(item)] = (
                        item,
                        json.dumps(item.to_json(), sort_keys=True),
                    )
                parts.append(entry[1])
        except (AttributeError, TypeError):
            payload = json.dumps([repr(item) for item in candidate])
        else:
            payload = "[" + ", ".join(parts) + "]"
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def append(self, record: dict) -> None:
        # Defined on this class, not inherited, so the per-layer tracer
        # that wraps ``ReductionJournal.append`` keeps counting its appends.
        super().append(record)

    def prepare(
        self, sequence_key: str, length: int, *, resume: bool
    ) -> dict[str, dict]:
        """Open the journal for one reduction run (:meth:`Journal.start`)
        and return the resumed decisions keyed by candidate key.  Corrupt
        lines are skipped (their candidates are re-probed); a journal
        written for a different initial sequence raises ``ValueError``."""
        header = {
            "v": REDUCTION_JOURNAL_VERSION,
            "header": True,
            "sequence": sequence_key,
            "length": length,
        }
        entries = self.start(
            header,
            bind="sequence",
            resume=resume,
            mismatch=(
                "reduction journal was written for a different "
                "transformation sequence — resume with the finding that "
                "produced it"
            ),
        )
        records = [record for record, _end in entries if record is not None]
        self.config = next((r for r in records if "pipeline" in r), None)
        return {r["key"]: r for r in records if "key" in r and "verdict" in r}
