"""The pipeline against real findings: never worse than the pre-pipeline
ddmin → payload-shrink → spirv-cleanup chain, worker-count invariant, and
wired through ``Harness.reduce_finding`` / ``reduce_all``."""

from __future__ import annotations

import functools
import json

import pytest

from repro.compilers import make_target, make_targets
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.core.harness import Finding, Harness
from repro.core.reducer import replay, shrink_add_function_payloads
from repro.corpus import donor_programs, reference_programs
from repro.reduce import DEFAULT_PASS_NAMES, ReductionConfig

PIPELINE = ReductionConfig(passes=DEFAULT_PASS_NAMES)


@pytest.fixture(scope="module")
def campaign():
    harness = Harness(
        make_targets(),
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=100),
    )
    result = harness.run_campaign(range(10))
    assert result.findings, "a 10-seed campaign should find something"
    return harness, result


class TestPipelineVsChain:
    def test_never_larger_than_the_prepipeline_chain(self, campaign):
        harness, result = campaign
        for finding in result.findings[:3]:
            chain = shrink_add_function_payloads(
                harness.reduce_finding(finding).transformations,
                harness.make_interestingness_test(finding),
            )
            cleaned = harness.spirv_cleanup(finding, chain.transformations)
            piped = harness.reduce_finding(finding, PIPELINE)
            assert len(piped.transformations) <= len(chain.transformations)
            if piped.cleaned_module is not None:
                piped_insts = sum(
                    1 for _ in piped.cleaned_module.all_instructions()
                )
                chain_insts = sum(
                    1 for _ in cleaned.module.all_instructions()
                )
                assert piped_insts <= chain_insts
            # Still interesting, like any reduction.
            test = harness.make_interestingness_test(finding)
            assert test(piped.transformations)

    def test_per_pass_stats_cover_the_pipeline(self, campaign):
        harness, result = campaign
        finding = result.findings[0]
        piped = harness.reduce_finding(finding, PIPELINE)
        assert [s.name for s in piped.pass_stats] == list(DEFAULT_PASS_NAMES)
        ddmin = next(s for s in piped.pass_stats if s.name == "ddmin")
        assert ddmin.runs >= 1 and ddmin.probes > 0


class TestWorkerInvariance:
    def test_one_and_two_workers_agree(self, campaign):
        harness, result = campaign
        finding = result.findings[0]
        serial = harness.reduce_finding(
            finding, ReductionConfig(passes=DEFAULT_PASS_NAMES, workers=1)
        )
        parallel = harness.reduce_finding(
            finding, ReductionConfig(passes=DEFAULT_PASS_NAMES, workers=2)
        )
        assert parallel.transformations == serial.transformations
        assert parallel.tests_run == serial.tests_run
        assert parallel.history == serial.history
        assert [s.to_json() for s in parallel.pass_stats] == [
            s.to_json() for s in serial.pass_stats
        ]


class TestReduceAll:
    def test_reduce_all_routes_through_the_pipeline(self, campaign):
        harness, result = campaign
        reductions = harness.reduce_all(
            result.findings[:2], ReductionConfig(passes=("type-batch", "ddmin"))
        )
        assert len(reductions) == 2
        for reduction in reductions:
            assert [s.name for s in reduction.pass_stats] == [
                "type-batch",
                "ddmin",
            ]


class TestSerialTrace:
    """A serial pipeline ddmin leg is the serial reducer: the same session
    at window 1, so it traces exactly like the classic path — one
    ``reduce.round`` per chunk size, no speculation events — and neither
    path counts as a parallel reduction."""

    def _reduce_traced(self, tmp_path, name, finding, config=None):
        path = tmp_path / f"{name}.jsonl"
        harness = Harness(
            make_targets(),
            reference_programs(),
            donor_programs(),
            FuzzerOptions(max_transformations=100),
            tracer=path,
        )
        harness.reduce_finding(finding, config)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        return harness, events

    def test_classic_and_ddmin_pipeline_emit_the_same_rounds(self, campaign, tmp_path):
        _, result = campaign
        finding = result.findings[0]
        classic, classic_events = self._reduce_traced(tmp_path, "classic", finding)
        piped, piped_events = self._reduce_traced(
            tmp_path, "piped", finding, ReductionConfig(passes=["ddmin"])
        )

        def rounds(events):
            return [
                {k: v for k, v in e.items() if k not in ("ts", "pid")}
                for e in events
                if e["ev"] == "reduce.round"
            ]

        assert rounds(classic_events), "the reduction traced no rounds"
        assert rounds(piped_events) == rounds(classic_events)
        for harness, events in ((classic, classic_events), (piped, piped_events)):
            kinds = {e["ev"] for e in events}
            assert not kinds & {"reduce.dispatch", "reduce.commit", "reduce.speculate"}
            end = next(e for e in events if e["ev"] == "reduce.end")
            assert "speculation" not in end
            assert harness.metrics.counter("reduce.parallel") == 0


def _cli_finding(harness, program, seed):
    """The finding ``repro-reduce`` builds for ``repro-fuzz PROGRAM --seed
    SEED`` (150 transformations at most) on the harness's only target."""
    fuzzed = Fuzzer(donor_programs(), FuzzerOptions(max_transformations=150)).run(
        program.module, program.inputs, seed
    )
    target = harness.targets[0]
    ctx = replay(program.module, program.inputs, fuzzed.transformations)
    classified, optimized_flow = harness.classify_variant(
        target, harness.reference_outcome(target, program), ctx.module, ctx.inputs
    )
    assert classified is not None, "the variant should trigger a bug"
    signature, kind, ground_truth = classified
    return Finding(
        target_name=target.name,
        program_name=program.name,
        seed=seed,
        signature=signature,
        kind=kind,
        optimized_flow=optimized_flow,
        transformations=list(fuzzed.transformations),
        original=program.module,
        inputs=dict(program.inputs),
        ground_truth_bug=ground_truth,
    )


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_cleanup_through_the_probe_cache_matches_uncached_probing(seed):
    """spirv-reduce edits its working module in place; the probe cache must
    see every edit (seed 3 once kept a deletion the uncached run rejects)."""
    program = next(p for p in reference_programs() if p.name == "arith_mix_0")
    reductions = []
    for probe_cache in (True, False):
        harness = Harness(
            [make_target("SwiftShader")], [program], probe_cache=probe_cache
        )
        finding = _cli_finding(harness, program, seed)
        reductions.append((harness, finding, harness.reduce_finding(finding, PIPELINE)))
    (_, _, cached), (uncached_harness, finding, uncached) = reductions
    assert cached.transformations == uncached.transformations
    assert cached.tests_run == uncached.tests_run
    assert cached.cleaned_module is not None
    assert cached.cleaned_module.fingerprint() == uncached.cleaned_module.fingerprint()
    _, verdict = uncached_harness._module_probe_factory(
        finding, functools.partial(replay, finding.original, finding.inputs)
    )(cached.transformations)
    assert verdict(cached.cleaned_module).interesting
