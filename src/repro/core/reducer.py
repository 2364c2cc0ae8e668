"""Test-case reduction via delta debugging over transformation sequences
(§3.4).

The reducer never edits programs directly: it searches for a small
*subsequence of transformations* that, replayed from the original program,
still satisfies an interestingness test.  Because transformations whose
preconditions fail are simply skipped (Definition 2.5), every subsequence is
a legal candidate and every candidate variant is semantics-equivalent to the
original — no external UB analysis is needed.

The algorithm is the paper's: maintain a chunk size ``c`` starting at
``⌊n/2⌋``; split the sequence into chunks of size ``c`` *from the last
transformation backwards*; try removing each chunk; when no chunk of size
``c`` can be removed, halve ``c``; stop when no chunk of size 1 can be
removed — the result is 1-minimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.context import Context
from repro.core.transformation import Transformation, apply_sequence
from repro.ir.module import Module
from repro.observability import NULL_TRACER, as_tracer

#: An interestingness test takes a candidate transformation subsequence and
#: returns True when the bug of interest still manifests.
InterestingnessTest = Callable[[Sequence[Transformation]], bool]


@dataclass
class ReductionResult:
    """Outcome of one reduction run."""

    transformations: list[Transformation]
    tests_run: int
    chunks_removed: int
    initial_length: int
    #: Populated when the reduction ran through a
    #: :class:`repro.perf.replay_cache.CachedReplayer` (a ``ReplayStats``).
    replay_stats: object | None = None
    #: True when the reduction stopped because it hit its ``max_seconds``
    #: wall-clock budget; the result is still interesting, just not
    #: guaranteed 1-minimal.
    timed_out: bool = False
    #: Structured reason when the fault-tolerant pipeline could not run to
    #: completion (``"budget-exhausted"``, ``"target-unresponsive"``,
    #: ``"verify-faulted"``, ``"oracle-error: ..."``); ``None`` for a clean,
    #: 1-minimal reduction.  See :mod:`repro.robustness.reduction`.
    degraded: str | None = None
    #: Flakiness/fault accounting from the flake-hardened oracle (the JSON
    #: form of :class:`repro.robustness.reduction.OracleStability`); ``None``
    #: when the reduction ran without the fault-tolerant pipeline.
    stability: dict | None = None
    #: Accepted-chunk history: one ``(chunk_size, start, end)`` triple per
    #: accepted removal, in acceptance order.  Like ``replay_stats`` it is
    #: excluded from :meth:`to_json` — it exists so the parallel reducer's
    #: determinism tests can compare *trajectories*, not just end states.
    history: list = field(default_factory=list)

    @property
    def final_length(self) -> int:
        return len(self.transformations)

    def to_json(self) -> dict:
        """A deterministic JSON view used to compare reduction runs.

        ``replay_stats`` is deliberately excluded: a resumed reduction
        replays journaled verdicts instead of re-executing probes, so its
        cache counters legitimately differ from an uninterrupted run's even
        though the *reduction* itself (sequence, tests, removals, stability)
        is byte-identical.
        """
        from repro.core.transformation import sequence_to_json

        try:
            transformations = sequence_to_json(self.transformations)
        except (AttributeError, TypeError):
            transformations = [repr(item) for item in self.transformations]
        return {
            "transformations": transformations,
            "tests_run": self.tests_run,
            "chunks_removed": self.chunks_removed,
            "initial_length": self.initial_length,
            "final_length": self.final_length,
            "timed_out": self.timed_out,
            "degraded": self.degraded,
            "stability": self.stability,
        }


def replay(
    original: Module,
    inputs: dict | None,
    transformations: Sequence[Transformation],
) -> Context:
    """Rebuild the variant for a transformation subsequence (Definition 2.5)."""
    ctx = Context.start(original, inputs)
    apply_sequence(ctx, transformations)
    return ctx


def reduce_transformations(
    transformations: Sequence[Transformation],
    is_interesting: InterestingnessTest,
    *,
    verify_input: bool = True,
    max_seconds: float | None = None,
    tracer: "object | None" = None,
) -> ReductionResult:
    """Delta-debug *transformations* down to a 1-minimal interesting
    subsequence.

    ``is_interesting`` is called on candidate subsequences only (never on the
    empty prefix of work the caller already did); with ``verify_input`` the
    full sequence is checked first, mirroring gfauto's sanity check.

    ``max_seconds`` bounds the reduction's wall clock: when the budget runs
    out, the best-so-far subsequence is returned with ``timed_out=True``
    (still interesting — every accepted candidate passed the test — but not
    guaranteed 1-minimal).  This is the robustness layer's guard against
    reductions that would otherwise grind forever on slow or supervised
    targets.

    **Contract**: the deadline is checked *between* candidates only — the
    reducer never interrupts ``is_interesting`` mid-probe, so a single call
    that hangs overshoots ``max_seconds`` by however long the probe takes.
    Callers who need a hard bound must bound the probe itself; the
    fault envelope (:mod:`repro.robustness.reduction`) does exactly that by
    clamping each supervised probe's timeout to ``min(probe_timeout,
    remaining budget)``.

    ``tracer`` (a :class:`~repro.observability.Tracer`, path, or ``None``)
    emits one ``reduce.round`` event per chunk size — chunks tried/removed
    and the surviving length — purely observational, so traced and untraced
    reductions are byte-identical.
    """
    tracer = as_tracer(tracer)
    current = list(transformations)
    tests_run = 0
    chunks_removed = 0
    history: list[tuple[int, int, int]] = []
    deadline = None if max_seconds is None else time.monotonic() + max_seconds

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    if verify_input:
        tests_run += 1
        if not is_interesting(current):
            raise ValueError("the full transformation sequence is not interesting")

    timed_out = False
    chunk_size = len(current) // 2
    while chunk_size >= 1 and not timed_out:
        round_tried = round_removed = 0
        removed_any = True
        while removed_any and not timed_out:
            removed_any = False
            # Chunks from the last transformation backwards (§3.4); the
            # leading chunk may be smaller when the size does not divide n.
            end = len(current)
            while end > 0:
                if out_of_time():
                    timed_out = True
                    break
                start = max(0, end - chunk_size)
                candidate = current[:start] + current[end:]
                if candidate:
                    tests_run += 1
                    round_tried += 1
                    if is_interesting(candidate):
                        current = candidate
                        chunks_removed += 1
                        round_removed += 1
                        removed_any = True
                        history.append((chunk_size, start, end))
                # An empty candidate cannot trigger a bug (original and
                # variant coincide), so it is skipped without spending a test.
                end = start
        if tracer.enabled:
            tracer.emit(
                "reduce.round",
                chunk_size=chunk_size,
                tried=round_tried,
                removed=round_removed,
                remaining=len(current),
            )
        chunk_size //= 2

    return ReductionResult(
        transformations=current,
        tests_run=tests_run,
        chunks_removed=chunks_removed,
        initial_length=len(transformations),
        timed_out=timed_out,
        history=history,
    )


def naive_reduce(
    transformations: Sequence[Transformation],
    is_interesting: InterestingnessTest,
) -> ReductionResult:
    """Baseline for the reducer ablation: one-at-a-time removal passes until
    a fixpoint.  Produces the same 1-minimal guarantee with many more tests.
    """
    current = list(transformations)
    tests_run = 0
    chunks_removed = 0
    changed = True
    while changed:
        changed = False
        index = len(current) - 1
        while index >= 0:
            candidate = current[:index] + current[index + 1 :]
            # Empty candidates never reach is_interesting (original and
            # variant coincide), so they must not be billed as tests —
            # otherwise the ablation baseline's tests_run overstates the
            # delta-debugging comparison (it skips them the same way).
            if candidate:
                tests_run += 1
                if is_interesting(candidate):
                    current = candidate
                    chunks_removed += 1
                    changed = True
            index -= 1
    return ReductionResult(
        transformations=current,
        tests_run=tests_run,
        chunks_removed=chunks_removed,
        initial_length=len(transformations),
    )


@dataclass
class PayloadShrinkResult:
    """Outcome of the §3.4 post-pass on ``AddFunction`` payloads."""

    transformations: list[Transformation]
    lines_removed: int
    tests_run: int


def shrink_add_function_payloads(
    transformations: Sequence[Transformation],
    is_interesting: InterestingnessTest,
) -> PayloadShrinkResult:
    """The paper's optional post-pass (§3.4): after delta debugging, shrink
    the functions *encoded inside* surviving ``AddFunction`` transformations.

    ``AddFunction`` is the one transformation the authors could not split
    into smaller pieces, so its payload can be larger than the bug needs.
    We greedily drop encoded body lines while the interestingness test keeps
    passing.  Removals that would break the payload are self-guarding: they
    fail ``AddFunction``'s precondition, the function never materialises,
    and the test rejects the candidate.
    """
    from dataclasses import replace as dc_replace

    from repro.core.transformations.functions import AddFunction

    current = list(transformations)
    tests = 0
    removed = 0
    for index, transformation in enumerate(current):
        if not isinstance(transformation, AddFunction):
            continue
        shrunk = transformation
        # Sweep each payload to a fixpoint: a removal the oracle rejects can
        # become acceptable once a *later* removal changes the function (e.g.
        # deleting the last use of a value makes its def droppable), so a
        # single backward sweep strands lines.  Repeat until a full sweep
        # removes nothing; each sweep removes at least one line, so this
        # terminates.
        sweep_removed = True
        while sweep_removed:
            sweep_removed = False
            line_index = len(shrunk.function_lines) - 1
            while line_index >= 0:
                line = shrunk.function_lines[line_index]
                # A blank (or whitespace-only) payload line has no opcode;
                # treat it as removable instead of crashing on the empty
                # split.
                words = line.split("=")[-1].split()
                word = words[0] if words else ""
                if word in ("OpFunction", "OpFunctionParameter", "OpFunctionEnd", "OpLabel"):
                    line_index -= 1
                    continue
                candidate_lines = (
                    shrunk.function_lines[:line_index]
                    + shrunk.function_lines[line_index + 1 :]
                )
                candidate = dc_replace(shrunk, function_lines=candidate_lines)
                trial = current[:index] + [candidate] + current[index + 1 :]
                tests += 1
                if is_interesting(trial):
                    shrunk = candidate
                    removed += 1
                    sweep_removed = True
                line_index -= 1
        current[index] = shrunk
    return PayloadShrinkResult(current, removed, tests)


@dataclass
class SpirvReduceResult:
    """Outcome of the generic-module post-pass (the spirv-reduce analogue)."""

    module: Module
    removed_instructions: int
    tests_run: int


def spirv_reduce(
    module: Module,
    is_interesting_module: Callable[[Module], bool],
    *,
    max_rounds: int = 4,
) -> SpirvReduceResult:
    """A generic SPIR-V-module reducer used as an optional post-pass to shrink
    ``AddFunction`` payloads (§3.4).  It removes unused instructions and
    uncalled functions while the module-level interestingness test keeps
    passing; unlike the transformation reducer it cannot revert
    transformations and does not preserve semantics.

    Every in-place edit of the working clone is followed by ``touch()``, so a
    content-keyed probe cache sees each candidate as the module it is.
    """
    from repro.ir.opcodes import Op
    from repro.compilers.passes.base import is_pure

    def called_ids(mod: Module) -> set[int]:
        return {
            int(inst.operands[0])
            for inst in mod.all_instructions()
            if inst.opcode is Op.FunctionCall
        }

    current = module.clone()
    removed = 0
    tests = 0
    for _ in range(max_rounds):
        changed = False
        # Try dropping uncalled non-entry functions wholesale (remove, test,
        # restore on failure).  ``called`` is recomputed after every
        # successful removal — deleting the sole caller of a function makes
        # the callee removable *immediately* — and the sweep repeats to a
        # fixpoint so a call chain of any depth unwinds within this round
        # regardless of declaration order (a stale set used to strand chains
        # deeper than ``max_rounds``).
        sweep_removed = True
        while sweep_removed:
            sweep_removed = False
            called = called_ids(current)
            # Walk by index so removal/restore is O(1) bookkeeping instead
            # of a fresh list scan per candidate.
            index = 0
            while index < len(current.functions):
                function = current.functions[index]
                if function.result_id == current.entry_point_id:
                    index += 1
                    continue
                if function.result_id in called:
                    index += 1
                    continue
                del current.functions[index]
                current.touch()
                tests += 1
                if is_interesting_module(current):
                    removed += sum(1 for _ in function.all_instructions())
                    changed = True
                    sweep_removed = True
                    called = called_ids(current)
                else:
                    current.functions.insert(index, function)
                    current.touch()
                    index += 1
        # Try dropping individually unused pure instructions.  ``used`` is
        # recomputed after every accepted deletion — removing an instruction
        # also removes its *operand uses*, which can make its whole def-use
        # chain dead — and the sweep repeats to a fixpoint so a chain of any
        # depth unwinds within this round (a per-round stale set used to
        # strand chains deeper than ``max_rounds``, the same bug the function
        # sweep above had).
        def used_ids(mod: Module) -> set[int]:
            ids: set[int] = set()
            for inst in mod.all_instructions():
                ids.update(inst.used_ids())
            return ids

        sweep_removed = True
        while sweep_removed:
            sweep_removed = False
            used = used_ids(current)
            for function in current.functions:
                for block in function.blocks:
                    index = 0
                    while index < len(block.instructions):
                        inst = block.instructions[index]
                        if inst.result_id is None or inst.result_id in used:
                            index += 1
                            continue
                        if not is_pure(inst) or inst.opcode is Op.Phi:
                            index += 1
                            continue
                        del block.instructions[index]
                        current.touch()
                        tests += 1
                        if is_interesting_module(current):
                            removed += 1
                            changed = True
                            sweep_removed = True
                            used = used_ids(current)
                        else:
                            block.instructions.insert(index, inst)
                            current.touch()
                            index += 1
        if not changed:
            break
    return SpirvReduceResult(module=current, removed_instructions=removed, tests_run=tests)
