"""The built-in reduction passes (beyond the paper; creduce/ReduKtor-style).

Pass order in :data:`DEFAULT_PASS_NAMES` leads with ddmin: its first leg is
then byte-identical to the pre-pipeline reducer's, and since every later
pass only removes elements or replaces them in place, the pipeline's result
can never be *larger* than the old chain's — the monotonicity the bench
gate checks.  Type batching and payload shrinking then work the 1-minimal
survivors, and the module cleanup runs once the sequence has stabilised.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.reduce.pipeline import PassRun

#: SPIR-V structural opcodes an ``AddFunction`` payload cannot lose without
#: failing its own precondition anyway (mirrors the core shrinker).
_STRUCTURAL_OPS = ("OpFunction", "OpFunctionParameter", "OpFunctionEnd", "OpLabel")


def _type_name(transformation) -> str:
    return getattr(transformation, "type_name", type(transformation).__name__)


class DdminPass:
    """The §3.4 chunked delta-debugging pass over the transformation
    sequence: one leg on the speculative parallel engine (and, in fault
    mode, the flake-hardened oracle), yielded to the pipeline's caller.
    Exempt from the give-up budget: its halving schedule bounds it, and
    budgeting parent-side probes but not pool workers would break
    cross-worker-count byte-identity."""

    name = "ddmin"
    stage = "sequence"

    def run(self, run: PassRun) -> Iterator:
        return run.ddmin()


class TypeBatchRemovalPass:
    """Drop *all* transformations of one type at once — the cheap early wins
    creduce gets from coarse passes before fine-grained ones.  Iterates the
    distinct types (first-appearance order) to a fixpoint: removing one type
    can make another's batch removal acceptable."""

    name = "type-batch"
    stage = "sequence"

    def run(self, run: PassRun) -> None:
        changed = True
        while changed and not run.gave_up:
            changed = False
            current = run.current
            type_names: list[str] = []
            for transformation in current:
                type_name = _type_name(transformation)
                if type_name not in type_names:
                    type_names.append(type_name)
            for type_name in type_names:
                current = run.current
                keep = [
                    index
                    for index, transformation in enumerate(current)
                    if _type_name(transformation) != type_name
                ]
                if len(keep) == len(current) or not keep:
                    continue  # type already gone, or it is the whole sequence
                if len(keep) == len(current) - 1:
                    # A one-member batch is a single-element removal — the
                    # ddmin pass's territory, already proven (or about to be
                    # proven) impossible.  Batching only pays from two up.
                    continue
                if run.propose_subset(keep):
                    changed = True


class PayloadShrinkPass:
    """Shrink the payloads *inside* surviving transformations toward simpler
    values, hypothesis-style: ``AddFunction`` bodies and declarations sweep
    line-by-line to a fixpoint (generalizing ``shrink_add_function_payloads``)
    and the livesafe wrapping is dropped when the bug survives without it;
    scalar ``AddConstant`` values shrink toward zero — try 0 outright, then
    binary-search the magnitude down (≤ ~31 probes for a 32-bit int)."""

    name = "payload-shrink"
    stage = "sequence"

    def run(self, run: PassRun) -> None:
        from repro.core.transformations.functions import AddFunction
        from repro.core.transformations.support import AddConstant

        index = 0
        while index < len(run.current) and not run.gave_up:
            transformation = run.current[index]
            if isinstance(transformation, AddFunction):
                self._shrink_function(run, index)
            elif isinstance(transformation, AddConstant):
                self._shrink_constant(run, index)
            index += 1

    # -- AddFunction -------------------------------------------------------------

    def _shrink_function(self, run: PassRun, index: int) -> None:
        from dataclasses import replace as dc_replace

        self._shrink_lines(run, index, "function_lines", structural=True)
        self._shrink_lines(run, index, "declarations", structural=False)
        transformation = run.current[index]
        if getattr(transformation, "make_livesafe", False):
            run.propose_replace(
                index,
                dc_replace(transformation, make_livesafe=False, livesafe_ids=[]),
            )

    def _shrink_lines(
        self, run: PassRun, index: int, attr: str, *, structural: bool
    ) -> None:
        from dataclasses import replace as dc_replace

        removed = True
        while removed and not run.gave_up:
            removed = False
            transformation = run.current[index]
            lines = getattr(transformation, attr)
            line_index = len(lines) - 1
            while line_index >= 0:
                line = lines[line_index]
                if structural:
                    words = line.split("=")[-1].split()
                    word = words[0] if words else ""
                    if word in _STRUCTURAL_OPS:
                        line_index -= 1
                        continue
                candidate = dc_replace(
                    transformation,
                    **{attr: lines[:line_index] + lines[line_index + 1 :]},
                )
                if run.propose_replace(index, candidate):
                    removed = True
                    transformation = run.current[index]
                    lines = getattr(transformation, attr)
                line_index -= 1

    # -- AddConstant -------------------------------------------------------------

    def _shrink_constant(self, run: PassRun, index: int) -> None:
        from dataclasses import replace as dc_replace

        transformation = run.current[index]
        if transformation.member_ids or transformation.undef:
            return  # composite/undef constants carry no scalar to shrink
        value = transformation.value
        if isinstance(value, bool):
            if value:
                run.propose_replace(index, dc_replace(transformation, value=False))
            return
        if isinstance(value, float):
            if value == 0.0:
                return
            if run.propose_replace(index, dc_replace(transformation, value=0.0)):
                return
            if value != int(value):
                run.propose_replace(
                    index, dc_replace(transformation, value=float(int(value)))
                )
            return
        if not isinstance(value, int) or value == 0:
            return
        if run.propose_replace(index, dc_replace(transformation, value=0)):
            return
        if value < 0:
            run.propose_replace(index, dc_replace(transformation, value=-value))
        current = run.current[index].value
        sign = 1 if current >= 0 else -1
        magnitude = abs(current)
        if magnitude <= 1:
            return
        # Most surviving constants cannot shrink at all (they are load-bearing
        # for the bug); probe one-below first so those cost two probes instead
        # of a full binary search of rejections.
        if not run.propose_replace(
            index, dc_replace(run.current[index], value=sign * (magnitude - 1))
        ):
            return
        # Shrinkable: binary-search the magnitude down.  Invariant: abs(low)
        # rejected, current value accepted.
        current = run.current[index].value
        low, high = 0, abs(current)
        while high - low > 1 and not run.gave_up:
            mid = (low + high) // 2
            if run.propose_replace(
                index, dc_replace(run.current[index], value=sign * mid)
            ):
                high = mid
            else:
                low = mid


class SpirvCleanupPass:
    """The domain-specific module cleanup (ReduKtor's "domain passes"):
    once the transformation sequence has stabilised, materialize the variant
    and run :func:`~repro.core.reducer.spirv_reduce` over it, probing each
    deletion through the pipeline's fault envelope and journal.  Skipped
    when the context provides no ``module_probe`` (pure-sequence tests)."""

    name = "cleanup"
    stage = "module"

    def run(self, run: PassRun) -> None:
        from repro.core.reducer import spirv_reduce

        module = run.module
        if module is None:
            return

        def probe(candidate) -> bool:
            verdict = run.test(candidate)
            if verdict:
                # Every accepted module probe is an accepted deletion (the
                # sweeps only probe after deleting), so account it here.
                run.stats.accepted += 1
                run.stats.removed += 1
                run.changed = True
            return verdict

        result = spirv_reduce(module, probe)
        run.set_module(result.module)


PASS_REGISTRY = {
    TypeBatchRemovalPass.name: TypeBatchRemovalPass,
    DdminPass.name: DdminPass,
    PayloadShrinkPass.name: PayloadShrinkPass,
    SpirvCleanupPass.name: SpirvCleanupPass,
}

#: Ddmin-first default order (see the module docstring).
DEFAULT_PASS_NAMES = ("ddmin", "type-batch", "payload-shrink", "cleanup")


def resolve_pass(name_or_pass):
    """A pass instance from a registry name, class, or ready instance."""
    if isinstance(name_or_pass, str):
        try:
            return PASS_REGISTRY[name_or_pass]()
        except KeyError:
            raise ValueError(
                f"unknown reduction pass {name_or_pass!r} "
                f"(available: {', '.join(sorted(PASS_REGISTRY))})"
            ) from None
    if isinstance(name_or_pass, type):
        return name_or_pass()
    return name_or_pass


def passes_from_names(names: Sequence) -> list:
    """Pass instances for a mixed list of names/classes/instances."""
    return [resolve_pass(name) for name in names]
