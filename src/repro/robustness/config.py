"""Robustness knobs for fault-isolated campaigns (one picklable dataclass).

The config travels inside :class:`repro.perf.parallel.CampaignSpec`, so every
worker process rebuilds the same supervised targets, quarantine budget, and
retry policy the parent campaign uses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RobustnessConfig:
    """How a harness should defend a campaign against misbehaving targets.

    The default config supervises nothing: probes run in-process exactly as
    before.  Setting ``probe_timeout`` or ``memory_limit_mb`` moves every
    target probe into a supervised child process (see
    :class:`repro.robustness.SupervisedTarget`).
    """

    #: Wall-clock bound per probe, in seconds.  ``None`` = unbounded (probes
    #: are still isolated in a child process if ``memory_limit_mb`` is set).
    probe_timeout: float | None = None
    #: Address-space cap for the probe worker, in MiB (``RLIMIT_AS``).  The
    #: worker maps allocation failure to an ``OutcomeKind.RESOURCE`` outcome.
    memory_limit_mb: int | None = None
    #: How many times to re-probe a finding to check its verdict is stable.
    #: Findings whose verdict changes across reruns are flagged
    #: ``nondeterministic`` so deduplication keeps them apart from stable bugs.
    retries: int = 0
    #: Base sleep between verdict-check reruns (doubles per attempt).
    retry_backoff: float = 0.05
    #: Seed for decorrelated retry jitter (see
    #: :class:`repro.robustness.retry.DecorrelatedJitter`); ``None`` keeps
    #: the deterministic exponential schedule.  Service fleets set a
    #: per-worker seed so simultaneous failures do not retry in lockstep.
    retry_jitter_seed: int | None = None
    #: Quarantine a target for the rest of the campaign once this many probe
    #: faults (timeout / resource / worker crash) are observed.  ``None``
    #: never quarantines.
    quarantine_after: int | None = None
    #: Skip (and roll back) a transformation whose ``Effect`` raises during
    #: fuzzing instead of aborting the whole seed.
    recover_effect_errors: bool = True
    #: Force supervision on/off; ``None`` = auto (supervise exactly when a
    #: timeout or memory bound is configured).
    supervise: bool | None = None

    @property
    def supervises(self) -> bool:
        if self.supervise is not None:
            return self.supervise
        return self.probe_timeout is not None or self.memory_limit_mb is not None


@dataclass(frozen=True)
class ReductionPolicy:
    """How :meth:`repro.core.harness.Harness.reduce_finding` defends the
    delta-debugging loop (see :mod:`repro.robustness.reduction`).

    The policy governs three independent defences:

    * **fault retries** — a probe whose verdict is a supervision fault
      (timeout / OOM / worker death) is retried up to ``fault_retries``
      times with the shared backoff discipline; once the budget is spent
      the candidate counts as *not interesting* — a fault can never accept
      a removal.
    * **flake-hardened voting** — a removal is accepted only after
      ``accept_votes`` unanimous probes; after the first observed
      disagreement, rejections are double-checked by a best-of-
      ``reject_votes`` majority so a flaky "no" cannot silently cost
      1-minimality either.
    * **degradation thresholds** — ``unresponsive_after`` consecutive
      faulted probes abort the loop with a best-so-far, ``degraded``
      result.

    The reduction's wall-clock budget is not a policy field: it is
    :attr:`repro.reduce.ReductionConfig.max_seconds`, which also clamps
    each supervised probe to what remains of it.
    """

    #: Retries per probe after a supervision fault (0 = give up at once).
    fault_retries: int = 2
    #: Base sleep between fault retries (doubles per attempt, none before
    #: the first try — see :func:`repro.robustness.retry.backoff_sleep`).
    retry_backoff: float = 0.05
    #: Seed for decorrelated fault-retry jitter (``None`` = deterministic
    #: exponential).  The delay *sequence* is still reproducible per seed.
    retry_jitter_seed: int | None = None
    #: Unanimous probes required to *accept* a removal (1 = trust a single
    #: probe, as the raw reducer does).
    accept_votes: int = 2
    #: Best-of-N majority used to re-check *rejections* once a disagreement
    #: has been observed (flaky-oracle mode).
    reject_votes: int = 3
    #: Abort (degraded, best-so-far) after this many consecutive faulted
    #: probes; ``None`` keeps retrying forever.
    unresponsive_after: int | None = 6

    @classmethod
    def from_robustness(cls, config: "RobustnessConfig") -> "ReductionPolicy":
        """The default reduction policy for a harness running with *config*:
        inherit the campaign's backoff, keep the voting defaults."""
        return cls(
            retry_backoff=config.retry_backoff,
            retry_jitter_seed=config.retry_jitter_seed,
        )
