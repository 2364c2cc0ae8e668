"""Campaign and reduction journals: JSONL records enabling checkpoint/resume.

``Harness.run_campaign(journal=...)`` appends one self-contained JSON line
per completed seed; ``resume=True`` replays those records instead of
re-fuzzing, so a campaign killed mid-run (even by ``SIGKILL``) restarts
where it left off and yields a :class:`~repro.core.harness.CampaignResult`
identical to an uninterrupted run.

Record shape (one per line)::

    {"v": 1, "seed": 3, "program": "loops_nested", "transformation_count": 41,
     "skipped_targets": [...], "faults": [["NVIDIA", "timeout"], ...],
     "findings": [{"target": ..., "signature": ..., "kind": ...,
                   "optimized_flow": ..., "nondeterministic": ...,
                   "ground_truth_bug": ..., "inputs": {...},
                   "transformations": [...]}]}

Findings reference their original program *by name* (as
:class:`~repro.perf.parallel.CampaignSpec` does) — the loader rebuilds the
module from the harness's reference corpus, so journal files stay small and
the resumed findings are behaviourally identical to freshly computed ones.
A line truncated by an untimely kill is ignored; its seed is simply re-run.
Every line additionally carries a mandatory CRC-32 (``crc``) over its
canonical JSON, so *interior* corruption — a flipped byte that still
parses — is detected and the record discarded rather than surfacing
partially merged (see :func:`seal_record` / :func:`parse_record`;
pre-checksum journals re-run their seeds).

:class:`ReductionJournal` applies the same fsync-per-line discipline to the
fault-tolerant reducer (:mod:`repro.robustness.reduction`): one header line
binding the journal to the initial transformation sequence, then one record
per oracle *decision* — candidate content key, final verdict, and the probe
/ vote / fault accounting the decision cost.  Because the delta-debugging
loop is a deterministic function of the verdict sequence, replaying the
journal reproduces the exact candidate order, so a resumed reduction appends
precisely the records the killed run never got to write and finishes with a
journal (and :class:`~repro.core.reducer.ReductionResult`) byte-identical to
an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

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
    body = json.dumps(record, sort_keys=True)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return (
        json.dumps({**record, "crc": crc}, sort_keys=True).encode("utf-8")
        + b"\n"
    )


def parse_record(line: str) -> dict | None:
    """Parse and verify one journal line; ``None`` for anything corrupt.

    The checksum is *mandatory*: a record without a valid ``crc`` is
    rejected, because treating crc-less lines as legacy would let a single
    flipped byte in the ``"crc"`` key itself silently disarm verification
    (the corruption fuzz tests construct exactly that line).  Journals
    written before checksumming simply re-run their seeds.  The returned
    dict never contains the ``crc`` field.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None  # truncated by a mid-write kill, or garbage
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    body = json.dumps(record, sort_keys=True)
    if crc != zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF:
        return None  # interior corruption (or a pre-checksum record)
    return record


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
    for entry in record["findings"]:
        run.findings.append(
            Finding(
                target_name=entry["target"],
                program_name=program_name,
                seed=record["seed"],
                signature=entry["signature"],
                kind=entry["kind"],
                optimized_flow=entry["optimized_flow"],
                transformations=sequence_from_json(entry["transformations"]),
                original=program.module,
                inputs=dict(entry["inputs"]),
                ground_truth_bug=entry.get("ground_truth_bug"),
                nondeterministic=entry.get("nondeterministic", False),
            )
        )
    return run


class CampaignJournal:
    """Append-only JSONL journal over a file path.

    All durable writes go through *fileops* (default: the real OS calls),
    the chaos seam that lets tests make any individual ``open``/``write``/
    ``fsync`` fail or tear — see :mod:`repro.robustness.chaos`.
    """

    def __init__(
        self, path: Path | str, *, fileops: FileOps | None = None
    ) -> None:
        self.path = Path(path)
        self.fileops = fileops if fileops is not None else REAL_FILEOPS

    def append(self, run: "SeedRun") -> None:
        self.append_record(run_to_record(run))

    def append_record(self, record: dict) -> None:
        """Append one already-serialized seed record (fsync-per-line).

        The campaign service's fleet workers ship records (not ``SeedRun``
        objects) over their result pipes; the service appends them through
        this path so worker and CLI journals are interchangeable.
        """
        line = seal_record(record)
        fileops = self.fileops
        with fileops.open(self.path, "a+b") as handle:
            if handle.tell() > 0:
                # A kill can truncate the previous record mid-line; start a
                # fresh line so this record stays parseable on later resumes.
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    fileops.write(handle, b"\n")
            fileops.write(handle, line)
            fileops.fsync(handle)

    def append_runs(self, runs) -> None:
        for run in runs:
            self.append(run)

    def load_records(self) -> dict[int, dict]:
        """Verified records keyed by seed; corrupt lines (torn, garbled, or
        failing their checksum) are skipped — their seeds are simply re-run.
        A later valid record for the same seed wins (re-executed lease
        batches journal identical records, so the duplicate is harmless)."""
        records: dict[int, dict] = {}
        if not self.path.exists():
            return records
        with self.path.open("r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                record = parse_record(line)
                if record is None or "seed" not in record:
                    continue
                records[record["seed"]] = record
        return records

    def load(self, references_by_name: dict) -> dict[int, "SeedRun"]:
        """Completed seeds, keyed by seed.  Malformed (e.g. kill-truncated)
        lines are skipped; a later valid record for the same seed wins."""
        return {
            seed: record_to_run(record, references_by_name)
            for seed, record in self.load_records().items()
        }


class ReductionJournal:
    """Append-only JSONL journal of per-candidate reduction verdicts.

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

    def __init__(
        self, path: Path | str, *, fileops: FileOps | None = None
    ) -> None:
        self.path = Path(path)
        self.fileops = fileops if fileops is not None else REAL_FILEOPS

    @staticmethod
    def candidate_key(candidate: Sequence) -> str:
        """A process-stable content fingerprint of a candidate subsequence.

        Real transformation sequences canonicalise through
        :func:`~repro.core.transformation.sequence_to_json`; opaque test
        doubles (the reducer treats elements as black boxes) fall back to
        their ``repr``.
        """
        from repro.core.transformation import sequence_to_json

        try:
            payload = json.dumps(sequence_to_json(candidate), sort_keys=True)
        except (AttributeError, TypeError):
            payload = json.dumps([repr(item) for item in candidate])
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def append(self, record: dict) -> None:
        fileops = self.fileops
        with fileops.open(self.path, "ab") as handle:
            fileops.write(handle, seal_record(record))
            fileops.fsync(handle)

    def prepare(
        self, sequence_key: str, length: int, *, resume: bool
    ) -> dict[str, dict]:
        """Open the journal for one reduction run.

        With ``resume=False`` any existing content is discarded and a fresh
        header is written.  With ``resume=True`` the existing records are
        loaded and returned keyed by candidate key; a trailing line torn by
        a mid-write ``SIGKILL`` is *truncated in place* (unlike the campaign
        journal's start-a-fresh-line repair) so the caught-up journal stays
        byte-identical to an uninterrupted run's.  A journal written for a
        different initial sequence raises ``ValueError`` — resuming someone
        else's reduction would replay the wrong verdicts.
        """
        fileops = self.fileops
        header = {
            "v": REDUCTION_JOURNAL_VERSION,
            "header": True,
            "sequence": sequence_key,
            "length": length,
        }
        if not resume or not self.path.exists():
            with fileops.open(self.path, "wb") as handle:
                fileops.write(handle, seal_record(header))
                fileops.fsync(handle)
            return {}
        data = self.path.read_bytes()
        if data and not data.endswith(b"\n"):
            cut = data.rfind(b"\n") + 1
            with fileops.open(self.path, "r+b") as handle:
                handle.truncate(cut)
                fileops.fsync(handle)
            data = data[:cut]
        decisions: dict[str, dict] = {}
        seen_header = False
        for line in data.decode("utf-8", errors="replace").splitlines():
            record = parse_record(line)
            if record is None:
                continue  # torn, garbled, or checksum-failing: re-run it
            if record.get("header"):
                if record.get("sequence") != sequence_key:
                    raise ValueError(
                        "reduction journal was written for a different "
                        "transformation sequence — resume with the finding "
                        "that produced it"
                    )
                seen_header = True
                continue
            if "key" in record and "verdict" in record:
                decisions[record["key"]] = record
        if not seen_header:
            # Empty (or headerless) file: restart it so appends line up.
            with fileops.open(self.path, "wb") as handle:
                fileops.write(handle, seal_record(header))
                fileops.fsync(handle)
            return {}
        return decisions
