"""Tests for the paper's optional/future-work features we implement:

* §3.4's spirv-reduce post-pass on AddFunction payloads,
* §7's input-modifying transformation (AddUniform).
"""

import pytest

from repro.compilers import make_target, make_targets
from repro.core.context import Context
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.harness import Harness
from repro.core.reducer import replay, shrink_add_function_payloads
from repro.core.transformation import SUPPORTING_TYPES, apply_sequence
from repro.core.transformations import (
    AddUniform,
    ReplaceConstantWithUniform,
)
from repro.core.transformations.functions import AddFunction
from repro.corpus import donor_programs, reference_programs
from repro.interp import execute
from repro.ir import types as tys
from repro.ir.opcodes import Op
from repro.reduce import ReductionConfig


class TestAddUniform:
    def _ctx(self, references):
        program = references[0]  # arith_mix_0: has int/float types
        return program, Context.start(program.module, program.inputs)

    def test_adds_variable_and_input(self, references):
        program, ctx = self._ctx(references)
        t = AddUniform(9001, "int", "fresh_uniform", 42, 9002)
        assert t.precondition(ctx)
        t.apply(ctx)
        assert ctx.inputs["fresh_uniform"] == 42
        assert ctx.module.id_named("fresh_uniform") == 9001
        # Semantics unchanged: nothing reads the new uniform.
        before = execute(program.module, program.inputs)
        after = execute(ctx.module, ctx.inputs)
        assert before.agrees_with(after)

    def test_rejects_existing_name(self, references):
        program, ctx = self._ctx(references)
        taken = next(iter(program.inputs))
        assert not AddUniform(9001, "int", taken, 1, 9002).precondition(ctx)

    def test_rejects_bad_kind_or_value(self, references):
        _, ctx = self._ctx(references)
        assert not AddUniform(9001, "vec9", "u", 1, 9002).precondition(ctx)
        assert not AddUniform(9001, "int", "u", 2**31, 9002).precondition(ctx)
        assert not AddUniform(9001, "int", "u", True, 9002).precondition(ctx)
        assert not AddUniform(9001, "bool", "u", 3, 9002).precondition(ctx)

    def test_enables_constant_obfuscation(self, references):
        """The follow-on flow: mint a uniform equal to a live constant, then
        route the constant's use through a load of it."""
        program = next(p for p in references if p.name.startswith("select_ladder"))
        ctx = Context.start(program.module, program.inputs)
        fn = ctx.module.entry_function()
        mul = next(
            i for i in fn.entry_block().instructions if i.opcode is Op.IMul
        )
        const_slot = next(
            k
            for k, op in enumerate(mul.operands)
            if ctx.module.is_constant(int(op))
        )
        value = ctx.module.constant_value(int(mul.operands[const_slot]))
        seq = [
            AddUniform(9010, "int", "minted", value, 9011),
            ReplaceConstantWithUniform(mul.result_id, const_slot, 9010, 9012),
        ]
        flags = apply_sequence(ctx, seq, validate_each=True)
        assert flags == [True, True]
        before = execute(program.module, program.inputs)
        after = execute(ctx.module, ctx.inputs)
        assert before.agrees_with(after)

    def test_is_supporting_type(self):
        assert "AddUniform" in SUPPORTING_TYPES

    def test_harness_runs_variants_on_variant_inputs(self, references, donors):
        """End-to-end: campaigns stay sound with input-modifying
        transformations in the mix."""
        harness = Harness(
            make_targets(),
            references,
            donors,
            FuzzerOptions(max_transformations=100),
        )
        for seed in range(8):
            run = harness.run_seed(seed)
            for finding in run.findings:
                test = harness.make_interestingness_test(finding)
                assert test(finding.transformations), finding.signature


class TestPayloadShrinking:
    def _finding_with_add_function(self):
        harness = Harness(
            make_targets(),
            reference_programs(),
            donor_programs(),
            FuzzerOptions(max_transformations=120),
        )
        for seed in range(200):
            run = harness.run_seed(seed)
            for finding in run.findings:
                reduction = harness.reduce_finding(finding)
                if any(
                    isinstance(t, AddFunction) for t in reduction.transformations
                ):
                    return harness, finding, reduction
        pytest.skip("no finding with a surviving AddFunction in 200 seeds")

    def test_shrunk_sequence_stays_interesting(self):
        harness, finding, reduction = self._finding_with_add_function()
        test = harness.make_interestingness_test(finding)
        shrink = shrink_add_function_payloads(reduction.transformations, test)
        assert test(shrink.transformations)
        # Payload shrinking never grows anything.
        before_lines = sum(
            len(t.function_lines)
            for t in reduction.transformations
            if isinstance(t, AddFunction)
        )
        after_lines = sum(
            len(t.function_lines)
            for t in shrink.transformations
            if isinstance(t, AddFunction)
        )
        assert after_lines <= before_lines

    def test_harness_flag(self):
        harness, finding, _ = self._finding_with_add_function()
        reduction = harness.reduce_finding(
            finding, ReductionConfig(shrink_function_payloads=True)
        )
        test = harness.make_interestingness_test(finding)
        assert test(reduction.transformations)

    def test_noop_without_add_function(self):
        from repro.core.transformations import ToggleFunctionControl

        def always(_):
            return True

        result = shrink_add_function_payloads(
            [ToggleFunctionControl(1, "Inline")], always
        )
        assert result.tests_run == 0
        assert result.lines_removed == 0
