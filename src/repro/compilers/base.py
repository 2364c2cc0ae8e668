"""Compiler-under-test abstractions.

A *target* (mirroring Table 2 of the paper) is an optimization pipeline with a
set of injected bugs, followed by reference execution of the optimized module.
Running a test on a target yields a :class:`TargetOutcome`:

* ``ok`` — the module compiled and executed, producing an
  :class:`~repro.interp.ExecutionResult`;
* ``crash`` — an optimization pass crashed (a :class:`CompilerCrash` carrying
  the injected bug's id and a realistic, noisy message for signature
  extraction), or execution itself failed;
* ``invalid`` — the pipeline emitted IR that fails validation (the paper's
  "spirv-opt emits illegal SPIR-V" bug class).

Miscompilations are *not* an outcome kind: they manifest as ``ok`` outcomes
whose results disagree with the original program's results, exactly as in the
paper's oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.interp.interpreter import ExecutionResult
from repro.ir.module import Module


class CompilerCrash(Exception):
    """An injected compiler bug fired during optimization.

    ``message`` imitates a real crash report (file/line, assertion text,
    ids); ``bug_id`` is the ground-truth identity of the injected bug, used
    only by the evaluation to score deduplication — the testing tools never
    look at it.
    """

    def __init__(self, message: str, bug_id: str, pass_name: str) -> None:
        super().__init__(message)
        self.message = message
        self.bug_id = bug_id
        self.pass_name = pass_name


class OutcomeKind(enum.Enum):
    OK = "ok"
    CRASH = "crash"
    INVALID = "invalid"
    # Supervision-only kinds (repro.robustness): a probe that misbehaved as a
    # *process* rather than as a compiler.  They never occur in-process; the
    # supervised runner maps hangs, memory blow-ups, and hard process deaths
    # to these so one bad probe cannot take a campaign down.
    TIMEOUT = "timeout"
    RESOURCE = "resource"
    WORKER_CRASH = "worker-crash"


#: Outcome kinds that indicate probe-level misbehaviour (the supervised
#: runner produced them instead of letting the campaign die).  These count
#: against a target's quarantine budget.
FAULT_KINDS = frozenset(
    {OutcomeKind.TIMEOUT, OutcomeKind.RESOURCE, OutcomeKind.WORKER_CRASH}
)


@dataclass(frozen=True)
class TargetOutcome:
    """Result of running one test on one target."""

    kind: OutcomeKind
    result: ExecutionResult | None = None
    crash_message: str = ""
    bug_id: str | None = None
    validation_errors: tuple[str, ...] = ()
    fired_miscompile_bugs: frozenset[str] = frozenset()

    @staticmethod
    def ok(result: ExecutionResult, fired: frozenset[str] = frozenset()) -> "TargetOutcome":
        return TargetOutcome(OutcomeKind.OK, result=result, fired_miscompile_bugs=fired)

    @staticmethod
    def crash(message: str, bug_id: str | None = None) -> "TargetOutcome":
        return TargetOutcome(OutcomeKind.CRASH, crash_message=message, bug_id=bug_id)

    @staticmethod
    def invalid(errors: list[str], bug_id: str | None = None) -> "TargetOutcome":
        return TargetOutcome(
            OutcomeKind.INVALID, validation_errors=tuple(errors), bug_id=bug_id
        )

    @staticmethod
    def timeout(seconds: float | None = None) -> "TargetOutcome":
        detail = f" after {seconds:g}s" if seconds is not None else ""
        return TargetOutcome(
            OutcomeKind.TIMEOUT, crash_message=f"probe timed out{detail}"
        )

    @staticmethod
    def resource(detail: str = "probe exceeded its memory limit") -> "TargetOutcome":
        return TargetOutcome(OutcomeKind.RESOURCE, crash_message=detail)

    @staticmethod
    def worker_crash(detail: str) -> "TargetOutcome":
        return TargetOutcome(OutcomeKind.WORKER_CRASH, crash_message=detail)

    @property
    def is_ok(self) -> bool:
        return self.kind is OutcomeKind.OK

    @property
    def is_fault(self) -> bool:
        """True for supervision-level faults (hang / OOM / process death)."""
        return self.kind in FAULT_KINDS


@dataclass
class BugContext:
    """Carries the set of enabled injected bugs through a pipeline run.

    Passes consult :meth:`active` before taking a buggy code path and call
    :meth:`crash` at crash-bug sites.  ``fired`` records which miscompilation
    bugs actually rewrote something, giving the evaluation ground truth.

    ``consulted`` records every bug id :meth:`active` was asked about (a
    :meth:`crash` site asks too).  The probe cache lets a pass run recorded
    under one target serve any target that agrees on the consulted bugs, so
    passes consult a bug only once its trigger holds (the contract is on
    :class:`~repro.compilers.passes.base.Pass`): an early query changes no
    output, but makes the run unshareable with every target that disagrees
    about that bug.
    """

    enabled: frozenset[str] = frozenset()
    fired: set[str] = field(default_factory=set)
    current_pass: str = ""
    consulted: set[str] = field(default_factory=set)

    def active(self, bug_id: str) -> bool:
        self.consulted.add(bug_id)
        return bug_id in self.enabled

    def fire(self, bug_id: str) -> None:
        """Record that a miscompilation/invalid-IR bug took effect."""
        self.fired.add(bug_id)

    def crash(self, bug_id: str, message: str) -> None:
        """Raise the crash for *bug_id* if it is enabled."""
        if self.active(bug_id):
            raise CompilerCrash(message, bug_id, self.current_pass)
