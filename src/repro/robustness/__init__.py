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

from repro.robustness.breaker import CircuitBreaker
from repro.robustness.chaos import (
    REAL_FILEOPS,
    ChaosFileOps,
    ChaosKill,
    Fault,
    FileOps,
    slow_loris_post,
    truncated_post,
)
from repro.robustness.config import ReductionPolicy, RobustnessConfig
from repro.robustness.journal import (
    CampaignJournal,
    Journal,
    ReductionJournal,
    parse_record,
    record_to_run,
    run_to_record,
    seal_record,
)
from repro.robustness.quarantine import QuarantineTracker
from repro.robustness.reduction import (
    FlakeHardenedOracle,
    ProbeVerdict,
    ReductionAborted,
    reduce_with_faults,
)
from repro.robustness.retry import (
    DecorrelatedJitter,
    backoff_sleep,
    verdict_is_stable,
)
from repro.robustness.supervisor import (
    SupervisedTarget,
    close_targets,
    find_supervised,
    supervise_targets,
)

__all__ = [
    "CampaignJournal",
    "ChaosFileOps",
    "ChaosKill",
    "CircuitBreaker",
    "DecorrelatedJitter",
    "Fault",
    "FileOps",
    "FlakeHardenedOracle",
    "Journal",
    "ProbeVerdict",
    "QuarantineTracker",
    "REAL_FILEOPS",
    "ReductionAborted",
    "ReductionJournal",
    "ReductionPolicy",
    "RobustnessConfig",
    "SupervisedTarget",
    "backoff_sleep",
    "close_targets",
    "find_supervised",
    "parse_record",
    "record_to_run",
    "reduce_with_faults",
    "run_to_record",
    "seal_record",
    "slow_loris_post",
    "supervise_targets",
    "truncated_post",
    "verdict_is_stable",
]
