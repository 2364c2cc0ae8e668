"""Fault-isolated campaign execution (an extension beyond the paper).

The paper's harness assumes every compiler probe returns; industrial
campaigns cannot.  This package keeps long unattended campaigns alive when
targets misbehave:

* :class:`SupervisedTarget` — run each probe in a child process with a
  wall-clock timeout and memory cap; hangs/OOMs/hard crashes become
  ``TIMEOUT`` / ``RESOURCE`` / ``WORKER_CRASH`` outcomes instead of killing
  the campaign.
* :class:`CampaignJournal` — per-seed checkpoints over the one sealed-JSONL
  :class:`Journal`, so an interrupted campaign resumes.
* :class:`QuarantineTracker` — targets that exceed a fault budget are
  skipped for the rest of the campaign.
* :func:`verdict_is_stable` — re-probe findings and flag flaky verdicts as
  ``nondeterministic`` so deduplication keeps them apart from stable bugs.
* :func:`reduce_with_faults` / :class:`FlakeHardenedOracle` — a fault-
  tolerant wrapper pipeline around the delta-debugging loop: supervised
  probes with per-candidate fault verdicts, adaptive k-of-n voting against
  flaky oracles, a fsync-per-line :class:`ReductionJournal` enabling
  byte-identical ``SIGKILL`` resume, and best-so-far graceful degradation.
* :mod:`repro.robustness.chaos` — the deterministic I/O fault-injection
  seam (:class:`FileOps` / :class:`ChaosFileOps`): every durable writer
  above performs its I/O through an injectable object, so tests can fail
  any *individual* ``write``/``fsync``/``open`` with ENOSPC/EIO, tear it
  at a chosen byte, or simulate ``SIGKILL`` at that exact instant
  (:class:`ChaosKill`); plus raw-socket misbehaving HTTP clients.
* :class:`CircuitBreaker` — per-tenant admission breaker over seeded
  decorrelated-jitter cooldowns (the campaign service's serial-failure
  backstop).
"""

import importlib

#: Each re-exported name and the submodule that defines it.  The package
#: imports nothing up front (PEP 562): a campaign harness needs only
#: :mod:`~repro.robustness.quarantine` and
#: :mod:`~repro.robustness.supervisor`, and importing every sibling with
#: them would add the reduction envelope, the journals, the chaos seam
#: (with ``socket``) and the breaker to every start-up.
_EXPORTS = {
    "CircuitBreaker": "breaker",
    "REAL_FILEOPS": "chaos",
    "ChaosFileOps": "chaos",
    "ChaosKill": "chaos",
    "Fault": "chaos",
    "FileOps": "chaos",
    "slow_loris_post": "chaos",
    "truncated_post": "chaos",
    "ReductionPolicy": "config",
    "RobustnessConfig": "config",
    "CampaignJournal": "journal",
    "Journal": "journal",
    "ReductionJournal": "journal",
    "parse_record": "journal",
    "record_to_run": "journal",
    "run_to_record": "journal",
    "seal_record": "journal",
    "QuarantineTracker": "quarantine",
    "FlakeHardenedOracle": "reduction",
    "ProbeVerdict": "reduction",
    "ReductionAborted": "reduction",
    "reduce_with_faults": "reduction",
    "DecorrelatedJitter": "retry",
    "backoff_sleep": "retry",
    "verdict_is_stable": "retry",
    "SupervisedTarget": "supervisor",
    "close_targets": "supervisor",
    "find_supervised": "supervisor",
    "supervise_targets": "supervisor",
}


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)


__all__ = sorted(_EXPORTS)
