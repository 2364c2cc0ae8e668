"""One spec-keyed worker pool for campaign shards and reduction probes.

A :class:`WorkerPool` runs its workers on
:class:`~repro.robustness.supervisor.WorkerProcess`, the package's one
forked worker.  Each worker's serve function holds the pool's *specs*:
picklable-or-inheritable recipes that build, once per worker per spec, a
*runner* for that spec's items.  Submissions ship only a spec key and a
list of small items:

* a :class:`~repro.perf.parallel.CampaignSpec` builds a campaign harness;
  its items are seeds and each reply is that seed's ``run_seed`` result.
  A campaign shard is one submission of contiguous seeds, and
  :meth:`WorkerPool.map` yields shard results in submission order, so a
  merged campaign is byte-identical to a serial one;
* a :class:`CallableProbeSpec` (an in-memory test plus the item sequence)
  or a :class:`FindingProbeSpec` (a finding's probe rebuilt from names
  only, the way ``CampaignSpec`` rebuilds a harness) builds a probe runner
  around a :class:`~repro.robustness.reduction.FlakeHardenedOracle` under
  the spec's policy (none: the trusting one-probe decision); its items are
  candidate index tuples into the sequence under reduction, and each reply
  is that oracle's decision record.

Under the ``fork`` start method the specs are inherited, never pickled, so
even closure-heavy oracles ship on POSIX; elsewhere the spec must pickle
(:meth:`WorkerPool.shippable` checks, callers fall back inline).

One serve function serves every spec.  It answers each item of a
submission with ``("ok", value, None)`` or ``("error", type, message)`` —
exceptions do not round-trip through pickling, and a failure in one item
does not poison the others — and drains the runner's counters once per
submission: the campaign harness's ``Metrics``, or the replayer's
``ReplayStats``.  The pool merges those deltas per spec key
(:meth:`WorkerPool.delta`), so merged counts equal a serial run's no matter
how submissions land on workers.  Under a fault policy, a decision that
aborts (an unresponsive target, an oracle error) is an ``"ok"`` record
carrying the abort; the parent's oracle raises it at *commit* time, so a
speculative abort that never commits cannot kill a reduction.  A
policy-less oracle's probe error is an ``"error"`` reply, which the
reduction re-raises.

**Worker death.**  A worker that dies hard (``SIGKILL``, the OOM killer,
``os._exit``, a reply that would not pickle) loses only its own
submission; the other workers' submissions run on.  The pool re-dispatches
each lost item on its own to a fresh worker, so a second loss convicts that
item; an item lost twice runs in the parent on a runner built from its
spec — what a ``workers=1`` run does anyway.  Runners are deterministic in
their spec, so every recovered reply equals the one the dead worker would
have sent.  Like every ``WorkerProcess``, no pool worker outlives a
SIGKILLed parent.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing.connection
import pickle
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.observability import Metrics
from repro.robustness.supervisor import MP_CONTEXT, WorkerDied, WorkerProcess


class WorkerProbeError(RuntimeError):
    """A worker's runner raised; carries the original type name."""

    def __init__(self, original_type: str, message: str) -> None:
        super().__init__(f"{original_type}: {message}" if message else original_type)
        self.original_type = original_type


def reply_value(reply: tuple) -> Any:
    """The value of one ``("ok", value, None)`` reply; raises
    :class:`WorkerProbeError` for an ``("error", type, message)`` one."""
    if reply[0] != "ok":
        raise WorkerProbeError(reply[1], reply[2])
    return reply[1]


class _SeedRunner:
    """A campaign harness as a pool runner: items are seeds."""

    def __init__(self, harness: Any) -> None:
        self.harness = harness

    def run(self, seed: int) -> Any:
        return self.harness.run_seed(seed)

    def drain(self) -> dict | None:
        metrics = getattr(self.harness, "metrics", None)
        return metrics.drain() if metrics is not None else None


class _ProbeRunner:
    """One probe spec's runner: a flake-hardened oracle that decides each
    item, an index tuple into *items*."""

    def __init__(
        self,
        items: Sequence,
        oracle: Any,
        *,
        replayer: Any = None,
        harness: Any = None,
    ) -> None:
        self.items = list(items)
        self.oracle = oracle
        self.replayer = replayer
        self.harness = harness  # kept alive: it owns supervised workers
        self._shipped: dict[str, int] = {}

    def run(self, indices: tuple[int, ...]) -> Any:
        return self.oracle.decide([self.items[i] for i in indices])

    def drain(self) -> dict | None:
        if self.replayer is None:
            return None
        current = self.replayer.stats.to_json()
        delta = {
            name: value - self._shipped.get(name, 0)
            for name, value in current.items()
            if value - self._shipped.get(name, 0)
        }
        self._shipped = current
        return {"counters": delta} if delta else None


def _build_runner(spec: Any) -> Any:
    built = spec.build()
    return _SeedRunner(built) if hasattr(built, "run_seed") else built


@dataclass(frozen=True)
class CallableProbeSpec:
    """Ship an in-memory verdict test to workers (fork-inherited or
    pickled): each worker wraps *test* (a :data:`~repro.robustness.
    reduction.VerdictTest`) in a fresh :class:`~repro.robustness.reduction.
    FlakeHardenedOracle` under *policy* and returns its decision records.
    """

    test: Callable
    items: tuple
    policy: Any = None  #: ReductionPolicy; None = the trusting oracle

    def build(self) -> _ProbeRunner:
        from repro.robustness.reduction import FlakeHardenedOracle

        return _ProbeRunner(self.items, FlakeHardenedOracle(self.test, self.policy))


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
    robustness: Any = None  #: RobustnessConfig (picklable dataclass)
    policy: Any = None  #: ReductionPolicy; None = the trusting oracle
    probe_delay: float | None = None  #: CLI --probe-delay, for journal tests
    probe_cache: bool = True  #: give each worker its own content-hash cache

    def build(self) -> _ProbeRunner:
        from repro.compilers import make_target
        from repro.core.harness import Finding, Harness
        from repro.core.transformation import sequence_from_json
        from repro.corpus import reference_programs
        from repro.perf.replay_cache import CachedReplayer
        from repro.robustness import find_supervised
        from repro.robustness.reduction import FlakeHardenedOracle

        program = next(
            p for p in reference_programs() if p.name == self.program_name
        )
        target = make_target(self.target_name)
        if self.probe_delay is not None:
            from repro.compilers.wrapper import DelayedTarget

            target = DelayedTarget(target, self.probe_delay)
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
        replayer = CachedReplayer(finding.original, finding.inputs)
        oracle = FlakeHardenedOracle(
            harness.make_probe_test(finding, replayer=replayer),
            self.policy,
            supervised_target=find_supervised(harness.targets[0]),
            replay_stats=replayer.stats,
        )
        return _ProbeRunner(items, oracle, replayer=replayer, harness=harness)


class _Runners:
    """Runners built on first use, one per spec key.

    A pool worker's serve function, answering each ``(key, items)`` request
    with one ``(replies, delta)``; the parent keeps one more for the items
    that kill workers.
    """

    def __init__(self, specs: dict[str, Any]) -> None:
        self.specs = specs
        self.runners: dict[str, Any] = {}

    def __call__(self, request: tuple[str, list]) -> Iterator[tuple[list, Any]]:
        yield self.run(*request)

    def run(self, key: str, items: list) -> tuple[list, Any]:
        """Run *items* on *key*'s runner: one reply per item, one drained
        delta."""
        replies = []
        runner = None
        for item in items:
            try:
                runner = self._runner(key)
                replies.append(("ok", runner.run(item), None))
            except Exception as exc:  # noqa: BLE001 - marshalled to the parent
                replies.append(("error", type(exc).__name__, str(exc)))
        return replies, runner.drain() if runner is not None else None

    def _runner(self, key: str) -> Any:
        runner = self.runners.get(key)
        if runner is None:
            runner = self.runners[key] = _build_runner(self.specs[key])
        return runner


class WorkerPool:
    """A pool of persistent worker processes, keyed by spec.

    One pool serves many concurrent submitters (``Harness.reduce_all``
    drives one session per finding): every worker can run every spec, so a
    long reduction cannot strand idle workers behind a finished one.
    Workers start on demand, up to ``workers``, and each runs one
    submission at a time; the rest queue in the parent.  ``capacity``
    bounds the items a driver should keep in flight (twice the workers, so
    workers never starve between result pickup and redispatch).
    """

    def __init__(self, specs: dict[str, Any], workers: int | None) -> None:
        from repro.perf.parallel import default_worker_count

        self.specs = dict(specs)
        self.workers = workers if workers and workers > 0 else default_worker_count()
        self.capacity = self.workers * 2
        self._tickets = itertools.count()
        #: Submissions no worker has taken yet: ``(ticket, key, items)``.
        self._queue: deque[tuple[int, str, list]] = deque()
        self._workers: list[WorkerProcess] = []
        #: The submission each busy worker is running.
        self._busy: dict[WorkerProcess, tuple[int, str, list]] = {}
        #: Finished submissions not yet handed out: ``ticket -> (replies,
        #: recovered)``.
        self._done: dict[int, tuple[list, bool]] = {}
        self._deltas: dict[str, Metrics] = {}
        self._parent = _Runners(self.specs)

    @staticmethod
    def shippable(spec: Any) -> bool:
        """Can *spec* reach a worker? Always under ``fork`` (the serve
        function is inherited); otherwise only if it pickles."""
        if MP_CONTEXT.get_start_method() == "fork":
            return True
        try:
            pickle.dumps(spec)
            return True
        except Exception:  # noqa: BLE001 - any pickling failure means "no"
            return False

    # -- submissions ---------------------------------------------------------------

    def submit(self, key: str, items: Iterable) -> int:
        """Ship *items* to one worker in a single round-trip; returns the
        ticket :meth:`wait` / :meth:`result` answer under."""
        ticket = next(self._tickets)
        self._queue.append((ticket, key, list(items)))
        self._dispatch()
        return ticket

    def wait(self, timeout: float | None = None) -> dict[int, tuple[list, bool]]:
        """Finished submissions as ``ticket -> (replies, recovered)`` — at
        least one, unless *timeout* expires or nothing is pending.
        ``recovered`` marks a submission a worker death lost."""
        if not self._done:
            self._collect(timeout)
        done, self._done = self._done, {}
        return done

    def result(self, ticket: int) -> list:
        """Block until submission *ticket* finishes; its replies."""
        while ticket not in self._done:
            if not self._busy:
                raise KeyError(f"no pending submission {ticket}")
            self._collect(None)
        return self._done.pop(ticket)[0]

    def map(self, key: str, batches: Iterable[Iterable]) -> Iterator[list]:
        """Run each batch as one submission, at most ``capacity`` in flight,
        and yield each batch's values in submission order; an item whose
        runner raised raises :class:`WorkerProbeError` here."""
        tickets: deque[int] = deque()
        for batch in batches:
            tickets.append(self.submit(key, batch))
            if len(tickets) >= self.capacity:
                yield [reply_value(r) for r in self.result(tickets.popleft())]
        while tickets:
            yield [reply_value(r) for r in self.result(tickets.popleft())]

    def delta(self, key: str) -> Metrics:
        """Every counter delta drained for *key* so far, merged."""
        return self._deltas.get(key, Metrics())

    # -- internals -----------------------------------------------------------------

    def _spawn(self) -> WorkerProcess:
        worker = WorkerProcess(_Runners(self.specs), name="pool-worker")
        self._workers.append(worker)
        return worker

    def _dispatch(self) -> None:
        """Hand queued submissions to idle workers, starting workers up to
        ``workers``."""
        idle = [worker for worker in self._workers if worker not in self._busy]
        while self._queue:
            if idle:
                worker = idle.pop()
            elif len(self._workers) < self.workers:
                worker = self._spawn()
            else:
                return
            submission = self._queue.popleft()
            worker.send(submission[1:])  # a dead worker fails its recv
            self._busy[worker] = submission

    def _absorb(self, key: str, delta: Any) -> None:
        if delta:
            self._deltas.setdefault(key, Metrics()).merge(delta)

    def _collect(self, timeout: float | None) -> None:
        """Move finished submissions into ``_done`` (recovering any a worker
        death lost), then refill the idle workers."""
        busy = {worker.conn: worker for worker in self._busy}
        if not busy:
            return
        for conn in multiprocessing.connection.wait(list(busy), timeout):
            worker = busy[conn]
            ticket, key, items = self._busy.pop(worker)
            try:
                replies, delta = worker.recv()
            except WorkerDied:
                self._workers.remove(worker)
                self._done[ticket] = (self._recover(key, items), True)
                continue
            self._absorb(key, delta)
            self._done[ticket] = (replies, False)
        self._dispatch()

    def _recover(self, key: str, items: list) -> list:
        """Re-dispatch a dead worker's items one at a time to a fresh
        worker; an item lost again runs in the parent on a runner built
        from its spec."""
        replies = []
        worker = None
        for item in items:
            if worker is None:
                worker = self._spawn()
            worker.send((key, [item]))
            try:
                (reply,), delta = worker.recv()
            except WorkerDied:
                self._workers.remove(worker)
                worker = None
                (reply,), delta = self._parent.run(key, [item])
            self._absorb(key, delta)
            replies.append(reply)
        return replies

    def close(self) -> None:
        """Stop idle workers; kill busy ones — their replies are no longer
        wanted (a discarded speculative probe, say)."""
        for worker in self._workers:
            if worker in self._busy:
                worker.kill()
            else:
                worker.stop()
        self._workers.clear()
        self._busy.clear()
        self._queue.clear()
        self._parent.runners.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def owned_pool(
    pool: "WorkerPool | None", key: str, workers: int, make_spec: Callable[[], Any]
) -> Iterator["WorkerPool | None"]:
    """*pool* when one is given; otherwise, for ``workers > 1``, a
    single-spec pool over ``make_spec()`` that is closed on exit — ``None``
    (run inline) when that spec cannot reach worker processes."""
    if pool is not None or workers <= 1:
        yield pool
        return
    spec = make_spec()
    owned = WorkerPool({key: spec}, workers) if WorkerPool.shippable(spec) else None
    try:
        yield owned
    finally:
        if owned is not None:
            owned.close()
