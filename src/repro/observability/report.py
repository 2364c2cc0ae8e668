"""``repro-report``: render a campaign summary from a trace or journal.

The report is computed *from the file alone* — no harness, corpus, or
target is rebuilt — so it works on traces copied off a crashed box and on
journals from campaigns that are still running.  Two input shapes are
auto-detected per line:

* **trace events** (``{"ev": ..., ...}``, written by
  :class:`~repro.observability.tracer.Tracer`) — the full story: probes by
  target and outcome, findings by kind and signature, reduction work and
  replay-cache hit rates, dedup rounds, faults/retries/quarantines;
* **journal records** (``{"seed": ..., "findings": [...], ...}``, written
  by :class:`~repro.robustness.journal.CampaignJournal`) — the per-seed
  subset: seeds completed, findings by kind/target/signature, faults, and
  skipped (quarantined) targets.

Malformed lines — e.g. one truncated by a mid-write ``SIGKILL`` — and
sealed records failing their checksum are skipped (:func:`read_jsonl`).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable

from repro.robustness.journal import read_jsonl


def summarize(records: Iterable[dict]) -> dict:
    """Aggregate trace events and/or journal records into one summary dict.

    All values are derived purely from the records; the keys mirror what
    the harness's own :class:`~repro.observability.metrics.Metrics` counts,
    which is what lets tests assert the trace reproduces campaign totals.
    """
    summary: dict = {
        "events": 0,
        "journal_records": 0,
        "seeds": 0,
        "probes": 0,
        "probes_by_target": Counter(),
        "probes_by_outcome": Counter(),
        "reference_probes": 0,
        "findings": 0,
        "findings_by_kind": Counter(),
        "findings_by_signature": Counter(),  # keyed "target :: signature"
        "nondeterministic_findings": 0,
        "faults": 0,
        "faults_by_kind": Counter(),
        "retries": 0,
        "unstable_retries": 0,
        "quarantined": {},
        "skipped_probes": 0,
        "reductions": 0,
        "reduction_tests_run": 0,
        "reduction_chunks_removed": 0,
        "reduction_initial_length": 0,
        "reduction_final_length": 0,
        "reductions_timed_out": 0,
        "reduce_faults": 0,
        "reduce_faults_by_kind": Counter(),
        "reductions_degraded": 0,
        "reductions_degraded_by_reason": Counter(),
        "reduction_passes": {},  # pass name -> summed PassStats counters
        "parallel_reductions": 0,
        "speculation": Counter(),  # dispatched/committed/wasted/... summed
        "reduce_dispatches": 0,
        "reduce_dispatched": 0,
        "wasted_speculation": 0,
        "cache": Counter(),
        "probe_cache": Counter(),
        "dedup_runs": 0,
        "dedup_tests": 0,
        "dedup_reports": 0,
        "dedup_skipped_empty": 0,
        # The streaming picker (repro.core.dedup_scale): per-decision
        # pick/suppress events plus the dedup.stream summary.
        "dedup_picks": 0,
        "dedup_suppressions": 0,
        "dedup_suppressions_by_type": Counter(),
        "dedup_evictions": 0,
        "dedup_stream": Counter(),  # candidates/groups/comparisons/...
        "dedup_pool_candidates": Counter(),  # stable / nondeterministic
        # Campaign-service health (the chaos/degradation events): campaigns
        # the store failed, submissions shed on low disk, breaker state
        # changes, garbage worker records refused, terminal transitions the
        # broken disk would not even record.
        "service_degraded": 0,
        "service_degraded_by_reason": Counter(),
        "service_shed": 0,
        "service_breaker_transitions": Counter(),  # "tenant -> STATE" -> n
        "service_garbage_records": 0,
        "service_terminal_unrecorded": 0,
    }
    seen_seeds: set = set()
    for record in records:
        event = record.get("ev")
        if event is None:
            if "seed" not in record or "findings" not in record:
                continue  # neither a trace event nor a journal record
            summary["journal_records"] += 1
            seen_seeds.add(("journal", record["seed"]))
            for entry in record.get("findings", ()):
                summary["findings"] += 1
                summary["findings_by_kind"][entry.get("kind", "?")] += 1
                key = f"{entry.get('target', '?')} :: {entry.get('signature', '?')}"
                summary["findings_by_signature"][key] += 1
                if entry.get("nondeterministic"):
                    summary["nondeterministic_findings"] += 1
            for target, kind in record.get("faults", ()):
                summary["faults"] += 1
                summary["faults_by_kind"][kind] += 1
            summary["skipped_probes"] += len(record.get("skipped_targets", ()))
            continue

        summary["events"] += 1
        if event == "seed.end":
            seen_seeds.add(("trace", record.get("seed")))
        elif event == "probe":
            if record.get("reference"):
                summary["reference_probes"] += 1
            else:
                summary["probes"] += 1
                summary["probes_by_target"][record.get("target", "?")] += 1
                summary["probes_by_outcome"][record.get("outcome", "?")] += 1
        elif event == "finding":
            summary["findings"] += 1
            summary["findings_by_kind"][record.get("kind", "?")] += 1
            key = f"{record.get('target', '?')} :: {record.get('signature', '?')}"
            summary["findings_by_signature"][key] += 1
            if record.get("nondeterministic"):
                summary["nondeterministic_findings"] += 1
        elif event == "fault":
            summary["faults"] += 1
            summary["faults_by_kind"][record.get("kind", "?")] += 1
        elif event == "retry":
            summary["retries"] += 1
            if not record.get("stable", True):
                summary["unstable_retries"] += 1
        elif event == "quarantine":
            summary["quarantined"][record.get("target", "?")] = record.get(
                "reason", ""
            )
        elif event == "probe.skipped":
            summary["skipped_probes"] += 1
        elif event == "reduce.end":
            summary["reductions"] += 1
            summary["reduction_tests_run"] += record.get("tests_run", 0)
            summary["reduction_chunks_removed"] += record.get("chunks_removed", 0)
            summary["reduction_initial_length"] += record.get("initial_length", 0)
            summary["reduction_final_length"] += record.get("final_length", 0)
            if record.get("timed_out"):
                summary["reductions_timed_out"] += 1
            for field, value in (record.get("cache") or {}).items():
                summary["cache"][field] += value
            for field, value in (record.get("probe_cache") or {}).items():
                summary["probe_cache"][field] += value
            speculation = record.get("speculation")
            if speculation:
                summary["parallel_reductions"] += 1
                for field in (
                    "dispatched",
                    "committed",
                    "wasted",
                    "memo_short_circuits",
                    "journal_short_circuits",
                    "worker_recoveries",
                ):
                    summary["speculation"][field] += speculation.get(field, 0)
        elif event == "campaign.end":
            for field, value in (record.get("probe_cache") or {}).items():
                summary["probe_cache"][field] += value
        elif event == "reduce.dispatch":
            summary["reduce_dispatches"] += 1
            summary["reduce_dispatched"] += record.get("count", 0)
        elif event == "reduce.speculate":
            summary["wasted_speculation"] += record.get("wasted", 0)
        elif event == "reduce.fault":
            summary["reduce_faults"] += 1
            summary["reduce_faults_by_kind"][record.get("kind", "?")] += 1
        elif event == "reduce.degraded":
            summary["reductions_degraded"] += 1
            summary["reductions_degraded_by_reason"][
                record.get("reason", "?")
            ] += 1
        elif event == "reduce.pass":
            stats = summary["reduction_passes"].setdefault(
                record.get("name", "?"),
                {"runs": 0, "probes": 0, "accepted": 0, "removed": 0, "gave_up": 0},
            )
            stats["runs"] += 1
            for field in ("probes", "accepted", "removed"):
                stats[field] += record.get(field, 0)
            if record.get("gave_up"):
                stats["gave_up"] += 1
        elif event == "dedup.end":
            summary["dedup_runs"] += 1
            summary["dedup_tests"] += record.get("tests", 0)
            summary["dedup_reports"] += record.get("reports", 0)
            summary["dedup_skipped_empty"] += record.get("skipped_empty", 0)
        elif event == "dedup.pick":
            # Batch picks carry no "streamed" flag; both count as picks.
            summary["dedup_picks"] += 1
            summary["dedup_evictions"] += len(record.get("evicted", ()))
        elif event == "dedup.suppress":
            summary["dedup_suppressions"] += 1
            for type_name in record.get("shared", ()):
                summary["dedup_suppressions_by_type"][type_name] += 1
        elif event == "dedup.stream":
            for key in (
                "candidates",
                "picks",
                "suppressed",
                "duplicates",
                "skipped_empty",
                "comparisons",
                "evictions",
                "repicks",
                "groups",
            ):
                summary["dedup_stream"][key] += record.get(key, 0)
            for pool, value in (
                record.get("pool_candidates") or {}
            ).items():
                summary["dedup_pool_candidates"][pool] += value
        elif event == "service.degraded":
            summary["service_degraded"] += 1
            summary["service_degraded_by_reason"][
                record.get("reason", "?")
            ] += 1
        elif event == "service.shed":
            summary["service_shed"] += 1
        elif event == "service.breaker":
            key = f"{record.get('tenant', '?')} -> {record.get('state', '?')}"
            summary["service_breaker_transitions"][key] += 1
        elif event == "service.garbage_record":
            summary["service_garbage_records"] += 1
        elif event == "service.terminal_unrecorded":
            summary["service_terminal_unrecorded"] += 1
    summary["seeds"] = len(seen_seeds)
    return summary


def cache_hit_percent(cache: dict) -> float | None:
    """Share of committed reduction decisions (``requests``, counted by the
    reduction's oracles on every run) reached without a full-price
    (from-scratch) replay: memo hits plus prefix-seeded replays."""
    requests = cache.get("requests", 0)
    if not requests:
        return None
    return 100.0 * (1.0 - cache.get("scratch_replays", 0) / requests)


def _table(headers: list[str], rows: list[list]) -> str:
    cells = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render(summary: dict) -> str:
    """The human-readable campaign summary."""
    rows: list[list] = [
        ["seeds completed", summary["seeds"]],
        ["probes run", summary["probes"]],
        ["reference probes", summary["reference_probes"]],
        ["probes skipped (quarantine)", summary["skipped_probes"]],
        ["findings", summary["findings"]],
        ["distinct signatures", len(summary["findings_by_signature"])],
        ["nondeterministic findings", summary["nondeterministic_findings"]],
        ["faults", summary["faults"]],
        ["retries (unstable)", f"{summary['retries']} ({summary['unstable_retries']})"],
        ["targets quarantined", len(summary["quarantined"])],
        ["reductions", summary["reductions"]],
        ["reduction tests run", summary["reduction_tests_run"]],
        ["reduction chunks removed", summary["reduction_chunks_removed"]],
        [
            "reduction length",
            f"{summary['reduction_initial_length']} -> {summary['reduction_final_length']}",
        ],
        ["reduction faults", summary["reduce_faults"]],
        ["reductions degraded", summary["reductions_degraded"]],
        ["replay-cache hit %", None],  # value filled in below
        ["dedup runs", summary["dedup_runs"]],
        ["dedup reports", summary["dedup_reports"]],
    ]
    hit = cache_hit_percent(summary["cache"])
    for row in rows:
        if row[0] == "replay-cache hit %":
            row[1] = "n/a" if hit is None else f"{hit:.1f}"
    sections = [_table(["Metric", "Value"], rows)]

    if summary["findings_by_kind"]:
        sections.append(
            "\nfindings by kind:\n"
            + _table(
                ["Kind", "Count"],
                [[k, n] for k, n in sorted(summary["findings_by_kind"].items())],
            )
        )
    if summary["findings_by_signature"]:
        sections.append(
            "\nfindings by signature:\n"
            + _table(
                ["Target :: signature", "Count"],
                [
                    [key, n]
                    for key, n in sorted(summary["findings_by_signature"].items())
                ],
            )
        )
    if summary["probes_by_target"]:
        sections.append(
            "\nprobes by target:\n"
            + _table(
                ["Target", "Probes"],
                [[t, n] for t, n in sorted(summary["probes_by_target"].items())],
            )
        )
    if summary["faults_by_kind"]:
        sections.append(
            "\nfaults by kind:\n"
            + _table(
                ["Fault", "Count"],
                [[k, n] for k, n in sorted(summary["faults_by_kind"].items())],
            )
        )
    if summary["reduction_passes"]:
        sections.append(
            "\nreduction passes:\n"
            + _table(
                ["Pass", "Runs", "Probes", "Accepted", "Removed", "Gave up"],
                [
                    [
                        name,
                        stats["runs"],
                        stats["probes"],
                        stats["accepted"],
                        stats["removed"],
                        stats["gave_up"],
                    ]
                    for name, stats in summary["reduction_passes"].items()
                ],
            )
        )
    if summary["parallel_reductions"] or summary["speculation"]:
        speculation = summary["speculation"]
        dispatched = speculation.get("dispatched", 0)
        wasted = speculation.get("wasted", 0)
        wasted_pct = (
            f"{100.0 * wasted / dispatched:.1f}" if dispatched else "n/a"
        )
        sections.append(
            "\nparallel reduction:\n"
            + _table(
                ["Metric", "Value"],
                [
                    ["parallel reductions", summary["parallel_reductions"]],
                    ["probes dispatched", dispatched],
                    ["verdicts committed", speculation.get("committed", 0)],
                    ["wasted speculation", f"{wasted} ({wasted_pct}%)"],
                    [
                        "memo short-circuits",
                        speculation.get("memo_short_circuits", 0),
                    ],
                    [
                        "journal short-circuits",
                        speculation.get("journal_short_circuits", 0),
                    ],
                    ["worker recoveries", speculation.get("worker_recoveries", 0)],
                ],
            )
        )
    if summary["probe_cache"]:
        cache = summary["probe_cache"]
        sections.append(
            "\nprobe cache:\n"
            + _table(
                ["Metric", "Value"],
                [
                    ["probes seen", cache.get("probes", 0)],
                    ["full-pipeline hits", cache.get("outcome_hits", 0)],
                    [
                        "stage hits / misses",
                        f"{cache.get('stage_hits', 0)} / {cache.get('stage_misses', 0)}",
                    ],
                    ["execution hits", cache.get("exec_hits", 0)],
                    ["optimize hits", cache.get("optimize_hits", 0)],
                    ["hits verified identical", cache.get("verified", 0)],
                    ["poisoned evictions", cache.get("poisoned", 0)],
                    ["fault outcomes not cached", cache.get("uncacheable", 0)],
                ],
            )
        )
    if summary["reduce_faults_by_kind"] or summary["reductions_degraded_by_reason"]:
        rows = [
            [f"fault: {k}", n]
            for k, n in sorted(summary["reduce_faults_by_kind"].items())
        ] + [
            [f"degraded: {r}", n]
            for r, n in sorted(summary["reductions_degraded_by_reason"].items())
        ]
        sections.append(
            "\nreduction faults and degradations:\n"
            + _table(["Event", "Count"], rows)
        )
    if (
        summary["dedup_picks"]
        or summary["dedup_suppressions"]
        or summary["dedup_stream"]
    ):
        stream = summary["dedup_stream"]
        rows = [
            ["candidates seen", stream.get("candidates", 0)],
            ["picks (streamed totals)", stream.get("picks", 0)],
            ["pick decisions", summary["dedup_picks"]],
            ["suppressions", summary["dedup_suppressions"]],
            ["evictions (order-dependent)", summary["dedup_evictions"]],
            ["duplicate type sets", stream.get("duplicates", 0)],
            ["empty-type skips", stream.get("skipped_empty", 0)],
            ["distinct groups", stream.get("groups", 0)],
            ["exact comparisons", stream.get("comparisons", 0)],
            [
                "nondeterministic pool",
                summary["dedup_pool_candidates"].get("nondeterministic", 0),
            ],
        ]
        sections.append(
            "\nstreaming dedup:\n" + _table(["Metric", "Value"], rows)
        )
        if summary["dedup_suppressions_by_type"]:
            top = summary["dedup_suppressions_by_type"].most_common(10)
            sections.append(
                "\nsuppressions by shared type (top 10):\n"
                + _table(
                    ["Type", "Suppressions"],
                    [[name, n] for name, n in top],
                )
            )
    if summary["quarantined"]:
        sections.append(
            "\nquarantined targets:\n"
            + _table(
                ["Target", "Reason"],
                [[t, r] for t, r in sorted(summary["quarantined"].items())],
            )
        )
    if (
        summary["service_degraded"]
        or summary["service_shed"]
        or summary["service_breaker_transitions"]
        or summary["service_garbage_records"]
        or summary["service_terminal_unrecorded"]
    ):
        rows = [
            ["campaigns degraded (store I/O)", summary["service_degraded"]],
        ] + [
            [f"degraded: {reason}", n]
            for reason, n in sorted(
                summary["service_degraded_by_reason"].items()
            )
        ] + [
            ["submissions shed (low disk)", summary["service_shed"]],
            ["garbage worker records refused", summary["service_garbage_records"]],
            ["terminal states unrecordable", summary["service_terminal_unrecorded"]],
        ] + [
            [f"breaker {key}", n]
            for key, n in sorted(
                summary["service_breaker_transitions"].items()
            )
        ]
        sections.append(
            "\nservice health:\n" + _table(["Event", "Count"], rows)
        )
    return "\n".join(sections)


def _jsonable(summary: dict) -> dict:
    return {
        key: dict(value) if isinstance(value, Counter) else value
        for key, value in summary.items()
    }


def report_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarize a campaign trace (or journal) file."
    )
    parser.add_argument(
        "trace", type=Path, help="JSONL trace from --trace (or a --journal file)"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    args = parser.parse_args(argv)
    if not args.trace.exists():
        parser.error(f"no such trace file: {args.trace}")

    summary = summarize(read_jsonl(args.trace))
    if summary["events"] == 0 and summary["journal_records"] == 0:
        print(f"{args.trace}: no trace events or journal records", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(_jsonable(summary), indent=2, sort_keys=True))
    else:
        print(render(summary))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(report_main())
