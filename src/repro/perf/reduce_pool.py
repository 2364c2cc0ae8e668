"""Persistent probe workers for speculative parallel reduction.

A :class:`ReductionPool` owns one ``ProcessPoolExecutor`` whose workers are
primed (via the initializer) with *probe specs*: picklable-or-inheritable
recipes that build, once per worker per spec, everything a probe needs —
the rebuilt target and harness, a :class:`~repro.perf.replay_cache.
CachedReplayer`, optionally a full :class:`~repro.robustness.reduction.
FlakeHardenedOracle` decision pipeline over a supervised target.  Probes
then ship only a tuple of candidate *indices*; the worker materialises the
candidate from its own copy of the sequence under reduction.

Two spec flavours:

* :class:`CallableProbeSpec` — wraps a plain interestingness/verdict test
  plus the item sequence.  Under a ``fork`` start method the initializer
  arguments are *inherited*, never pickled, so even closure-heavy oracles
  ship on POSIX; elsewhere the spec must pickle
  (:meth:`ReductionPool.shippable` checks, callers fall back inline).
* :class:`FindingProbeSpec` — rebuilds a finding's probe from names only
  (target, corpus program, transformations as JSON), mirroring
  :class:`~repro.perf.parallel.CampaignSpec`: workers call the same
  deterministic factories the parent used, so worker verdicts are identical
  to parent verdicts.

Worker replies are plain tuples — one ``("ok", verdict-or-record, None)``
or ``("error", type, message)`` entry per candidate of a submission, plus
the submission's ``stats`` — because exceptions do not round-trip through
pickling.  A decision that aborts (an unresponsive target, an oracle error)
is an ``"ok"`` record carrying the abort; the parent's oracle raises it at
*commit* time, so a speculative abort that never commits cannot kill a
reduction.  ``stats`` is the drained :class:`~repro.perf.replay_cache.
ReplayStats` delta since the previous reply, merged parent-side through
:meth:`ReductionPool.absorb` — the same drain/merge discipline the campaign
shard path uses for metrics.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: Per-process state built lazily from the initializer's specs:
#: ``{"specs": {key: spec}, "runners": {key: _Runner}}``.
_POOL_STATE: dict[str, Any] = {}


class WorkerProbeError(RuntimeError):
    """A probe worker's oracle raised; carries the original type name."""

    def __init__(self, original_type: str, message: str) -> None:
        super().__init__(f"{original_type}: {message}" if message else original_type)
        self.original_type = original_type


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


class _Runner:
    """One spec's per-worker probe state: either a plain boolean/verdict
    test or a full flake-hardened decision pipeline."""

    def __init__(
        self,
        items: Sequence,
        *,
        probe: Callable | None = None,
        oracle: Any = None,
        replayer: Any = None,
        harness: Any = None,
    ) -> None:
        self.items = list(items)
        self.probe = probe
        self.oracle = oracle
        self.replayer = replayer
        self.harness = harness  # kept alive: it owns supervised workers
        self._shipped: dict[str, int] = {}

    def evaluate(self, indices: tuple[int, ...]):
        candidate = [self.items[i] for i in indices]
        if self.oracle is not None:
            return self.oracle.decide(candidate)
        return bool(self.probe(candidate))

    def drain_stats(self) -> dict | None:
        if self.replayer is None:
            return None
        current = self.replayer.stats.to_json()
        delta = {
            name: value - self._shipped.get(name, 0)
            for name, value in current.items()
            if value - self._shipped.get(name, 0)
        }
        self._shipped = current
        return delta or None


@dataclass(frozen=True)
class CallableProbeSpec:
    """Ship an in-memory oracle to workers (fork-inherited or pickled).

    With ``decide=True`` the worker wraps *test* (then a
    :data:`~repro.robustness.reduction.VerdictTest`) in a fresh
    :class:`~repro.robustness.reduction.FlakeHardenedOracle` and returns
    full decision records; otherwise *test* is a plain boolean
    interestingness test.
    """

    test: Callable
    items: tuple
    decide: bool = False
    policy: Any = None  #: ReductionPolicy (decide mode only)

    def build(self) -> _Runner:
        if self.decide:
            from repro.robustness.config import ReductionPolicy
            from repro.robustness.reduction import FlakeHardenedOracle

            oracle = FlakeHardenedOracle(
                self.test, self.policy or ReductionPolicy()
            )
            return _Runner(self.items, oracle=oracle)
        return _Runner(self.items, probe=self.test)


@dataclass(frozen=True)
class FindingProbeSpec:
    """Rebuild a finding's probe inside a worker from names + JSON only.

    The finding's ``original`` module and ``inputs`` are exactly its corpus
    program's (see ``Harness.run_seed``), so they rebuild from
    :func:`repro.corpus.reference_programs` by name; the transformation
    sequence round-trips through its canonical JSON form.  The worker
    harness supervises its target when *robustness* is set — each worker
    owns its own probe child, timeouts and all.
    """

    target_name: str
    program_name: str
    transformations_json: str  #: ``json.dumps(sequence_to_json(...))``
    signature: str
    kind: str
    optimized_flow: bool
    use_cache: bool = True
    robustness: Any = None  #: RobustnessConfig (picklable dataclass)
    decide: bool = False  #: run the FlakeHardenedOracle pipeline in-worker
    policy: Any = None  #: ReductionPolicy (decide mode only)
    probe_delay: float | None = None  #: CLI --probe-delay, for journal tests
    probe_cache: bool = False  #: give each worker its own content-hash cache

    def build(self) -> _Runner:
        from repro.compilers import make_target
        from repro.core.harness import Finding, Harness
        from repro.core.transformation import sequence_from_json
        from repro.corpus import reference_programs

        program = next(
            p for p in reference_programs() if p.name == self.program_name
        )
        target = make_target(self.target_name)
        if self.probe_delay is not None:
            from repro.cli import _DelayedTarget

            target = _DelayedTarget(target, self.probe_delay)
        harness = Harness(
            [target],
            [program],
            robustness=self.robustness,
            probe_cache=self.probe_cache,
        )
        items = sequence_from_json(json.loads(self.transformations_json))
        finding = Finding(
            target_name=self.target_name,
            program_name=self.program_name,
            seed=0,  # irrelevant to replay; findings rebuild by content
            signature=self.signature,
            kind=self.kind,
            optimized_flow=self.optimized_flow,
            transformations=list(items),
            original=program.module,
            inputs=dict(program.inputs),
        )
        replayer = None
        if self.use_cache:
            from repro.perf.replay_cache import CachedReplayer

            replayer = CachedReplayer(finding.original, finding.inputs)
        if self.decide:
            from repro.robustness import find_supervised
            from repro.robustness.config import ReductionPolicy
            from repro.robustness.reduction import FlakeHardenedOracle

            oracle = FlakeHardenedOracle(
                harness.make_probe_test(finding, replayer=replayer),
                self.policy or ReductionPolicy(),
                supervised_target=find_supervised(harness.targets[0]),
                replay_stats=replayer.stats if replayer is not None else None,
            )
            return _Runner(
                items, oracle=oracle, replayer=replayer, harness=harness
            )
        probe = harness.make_interestingness_test(finding, replayer=replayer)
        return _Runner(items, probe=probe, replayer=replayer, harness=harness)


def _pool_init(specs: dict) -> None:
    _POOL_STATE["specs"] = specs
    _POOL_STATE["runners"] = {}


def _runner_for(key: str) -> _Runner:
    runner = _POOL_STATE["runners"].get(key)
    if runner is None:
        runner = _POOL_STATE["specs"][key].build()
        _POOL_STATE["runners"][key] = runner
    return runner


def _pool_eval(key: str, batch: list[tuple[int, ...]]) -> tuple:
    """Evaluate one submission's candidates in one round-trip.

    Each candidate gets its own ``(status, a, b)`` entry — a failure in one
    does not poison the others — and the replay-stats delta is drained once
    for the whole batch.
    """
    results = []
    runner = None
    for indices in batch:
        try:
            runner = _runner_for(key)
            results.append(("ok", runner.evaluate(indices), None))
        except Exception as exc:  # noqa: BLE001 - marshalled to the parent
            results.append(("error", type(exc).__name__, str(exc)))
    stats = runner.drain_stats() if runner is not None else None
    return results, stats


class ReductionPool:
    """A shared pool of persistent probe workers, keyed by spec.

    One pool serves many concurrent reductions (``Harness.reduce_all``):
    every worker can probe for every spec, so a long reduction cannot strand
    idle workers behind a finished one.  ``capacity`` bounds the number of
    concurrently submitted probes (slightly oversubscribed so workers never
    starve between result pickup and redispatch).
    """

    def __init__(
        self, specs: dict[str, Any], workers: int, *, oversubscribe: int = 2
    ) -> None:
        self.specs = dict(specs)
        self.workers = max(1, workers)
        self.capacity = self.workers * max(1, oversubscribe)
        self.recoveries = 0
        self._executor: ProcessPoolExecutor | None = None
        #: Per-spec replay-stat deltas absorbed from worker replies.
        self.replay_stats: dict[str, dict[str, int]] = {}

    @staticmethod
    def shippable(spec: Any) -> bool:
        """Can *spec* reach a worker? Always under ``fork`` (initializer args
        are inherited); otherwise only if it pickles."""
        if _fork_context() is not None:
            return True
        try:
            pickle.dumps(spec)
            return True
        except Exception:  # noqa: BLE001 - any pickling failure means "no"
            return False

    @classmethod
    def for_spec(cls, key: str, spec: Any, workers: int) -> "ReductionPool | None":
        """A single-spec pool, or ``None`` when *spec* cannot reach worker
        processes (the caller then reduces inline)."""
        return cls({key: spec}, workers) if cls.shippable(spec) else None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            kwargs: dict[str, Any] = {}
            fork = _fork_context()
            if fork is not None:
                kwargs["mp_context"] = fork
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=(self.specs,),
                **kwargs,
            )
        return self._executor

    def submit(self, key: str, indices_list: list[tuple[int, ...]]):
        """Ship one or more candidates to one worker in a single round-trip;
        the reply is ``([(status, a, b), ...], stats)``."""
        return self._ensure().submit(_pool_eval, key, list(indices_list))

    def recover(self) -> None:
        """Replace a broken executor (a worker died hard mid-probe)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self.recoveries += 1
        time.sleep(0)  # let the reaped children drain before respawning

    def absorb(self, key: str, delta: dict) -> None:
        bucket = self.replay_stats.setdefault(key, {})
        for name, value in delta.items():
            bucket[name] = bucket.get(name, 0) + value

    def replay_stats_for(self, key: str) -> dict[str, int]:
        return dict(self.replay_stats.get(key, {}))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ReductionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
