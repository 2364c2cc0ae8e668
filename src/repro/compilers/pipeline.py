"""Optimization pipelines and the Target abstraction (Table 2 analogue)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compilers.base import BugContext, CompilerCrash, TargetOutcome
from repro.compilers.bugs import BUG_CATALOG, BugKind
from repro.compilers.passes import (
    BlockLayoutPass,
    ConstantFoldingPass,
    CopyPropagationPass,
    DeadCodeEliminationPass,
    InlinePass,
    LegalizePass,
    Mem2RegPass,
    Pass,
    SimplifyCfgPass,
)
from repro.interp.errors import ExecError
from repro.interp.interpreter import DEFAULT_FUEL, execute
from repro.ir.module import IrError, Module
from repro.ir.validator import validate


def invalid_ir_bug(fired) -> str | None:
    """The bug an invalid-IR or runtime-fault outcome is attributed to: the
    first fired bug of kind ``INVALID_IR``, else ``None``."""
    for bug_id in fired:
        if BUG_CATALOG[bug_id].kind is BugKind.INVALID_IR:
            return bug_id
    return None


def standard_pipeline() -> list[Pass]:
    """The full optimizing pipeline used by driver-style targets."""
    return [
        LegalizePass(),
        Mem2RegPass(),
        CopyPropagationPass(),
        ConstantFoldingPass(),
        SimplifyCfgPass(),
        InlinePass(),
        CopyPropagationPass(),
        ConstantFoldingPass(),
        DeadCodeEliminationPass(),
        BlockLayoutPass(),
    ]


def tool_pipeline() -> list[Pass]:
    """spirv-opt-style pipeline (no driver frontend legalization)."""
    return [
        Mem2RegPass(),
        CopyPropagationPass(),
        ConstantFoldingPass(),
        SimplifyCfgPass(),
        InlinePass(),
        CopyPropagationPass(),
        ConstantFoldingPass(),
        DeadCodeEliminationPass(),
        BlockLayoutPass(),
    ]


def optimize(module: Module, passes: list[Pass] | None = None) -> Module:
    """Run a bug-free optimizer over a clone of *module* (the project's
    ``spirv-opt -O`` used as a *tool* in the test flow)."""
    work = module.clone()
    bugs = BugContext(frozenset())
    for opt_pass in passes or tool_pipeline():
        bugs.current_pass = opt_pass.name
        opt_pass.run(work, bugs)
        work.touch()
    return work


@dataclass
class Target:
    """One compiler under test: a pipeline plus a set of injected bugs.

    ``validates_output`` models tool targets (spirv-opt) whose emitted module
    is validated — driver targets just execute whatever their backend
    produced.
    """

    name: str
    version: str
    gpu_type: str
    enabled_bugs: frozenset[str]
    passes: list[Pass] = field(default_factory=standard_pipeline)
    validates_output: bool = False
    fuel: int = DEFAULT_FUEL

    def __post_init__(self) -> None:
        unknown = self.enabled_bugs - set(BUG_CATALOG)
        if unknown:
            raise ValueError(f"unknown bug ids: {sorted(unknown)}")

    def compile(self, module: Module) -> tuple[Module, BugContext]:
        """Optimize a clone of *module*; raises :class:`CompilerCrash`."""
        bugs = BugContext(self.enabled_bugs)
        work = module.clone()
        for opt_pass in self.passes:
            bugs.current_pass = opt_pass.name
            opt_pass.run(work, bugs)
            work.touch()
        return work, bugs

    def run(self, module: Module, inputs: dict | None = None) -> TargetOutcome:
        """Compile and execute *module*, classifying the outcome."""
        try:
            optimized, bugs = self.compile(module)
        except CompilerCrash as crash:
            return TargetOutcome.crash(crash.message, crash.bug_id)
        except (IrError, RecursionError) as exc:  # defensive: never expected
            return TargetOutcome.crash(f"internal error: {exc}", None)

        if self.validates_output:
            errors = validate(optimized)
            if errors:
                return TargetOutcome.invalid(
                    errors, bug_id=invalid_ir_bug(bugs.fired)
                )

        try:
            result = execute(optimized, inputs, fuel=self.fuel)
        except ExecError as exc:
            return TargetOutcome.crash(
                f"runtime fault: {type(exc).__name__}: {exc}",
                invalid_ir_bug(bugs.fired),
            )
        return TargetOutcome.ok(result, frozenset(bugs.fired))
