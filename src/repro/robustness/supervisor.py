"""Worker processes, and supervised probe execution on top of them.

:class:`WorkerProcess` is the one forked worker in the package: a child
that loops over a request pipe and streams one reply per finished item.
The service's :class:`~repro.service.fleet.WorkerFleet`, the
:class:`~repro.perf.pool.WorkerPool` behind parallel campaigns and
reductions, and :class:`SupervisedTarget` all run on it.

In-process probes are fast but fragile: a hang, runaway allocation, or hard
crash in a buggy optimization pass takes the whole campaign (and every
completed seed) down with it.  :class:`SupervisedTarget` wraps a target and
executes each ``run(module, inputs)`` probe in a persistent worker process:

* the module/inputs travel over a pipe; the worker runs the real
  ``target.run`` and sends the :class:`TargetOutcome` back — for well-behaved
  targets the supervised outcome is *equal* to the in-process one, so the
  paper's oracle semantics are preserved;
* a probe that exceeds the wall-clock bound gets its worker killed and maps
  to ``OutcomeKind.TIMEOUT``;
* a probe that exhausts the configured address-space cap (``RLIMIT_AS``,
  applied inside the worker) maps to ``OutcomeKind.RESOURCE``;
* a worker that dies hard (segfault, ``os._exit``, OOM-killer) maps to
  ``OutcomeKind.WORKER_CRASH``.

Workers restart lazily after a fault, so one bad probe costs one process,
not the campaign.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import weakref
from typing import Any, Callable, Iterable

from repro.compilers.base import OutcomeKind, TargetOutcome
from repro.compilers.wrapper import TargetWrapper, find_wrapper
from repro.observability import NULL_TRACER, as_tracer
from repro.robustness.config import RobustnessConfig

#: The multiprocessing context of :class:`WorkerProcess`, the package's one
#: forked worker (under probe children, fleet workers and pool workers).
#: ``fork`` keeps worker start-up cheap and lets non-picklable test doubles
#: ride along; platforms without it (Windows, macOS spawn-default) fall back
#: to the default context, which requires picklable serve functions.
MP_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)

#: Every live :class:`WorkerProcess` this process holds — fleet, pool and
#: probe workers alike.  A forked child inherits each one's parent-side pipe
#: end; as long as it holds such a copy that worker's ``recv()`` never sees
#: EOF, so it would outlive a SIGKILLed parent.  The child closes them all
#: first and clears the registry.  A spawned child re-imports this module,
#: so its registry starts empty.
_LIVE: "weakref.WeakSet[WorkerProcess]" = weakref.WeakSet()

#: How long a worker that was asked to exit (or whose pipe hit EOF) gets
#: before it is SIGKILLed, and how long reaping a killed one may take.
_REAP_SECONDS = 2.0


class WorkerDied(Exception):
    """The worker's pipe hit EOF; ``exitcode`` is how the process ended."""

    def __init__(self, exitcode: int | None) -> None:
        super().__init__(f"worker died (exit code {exitcode})")
        self.exitcode = exitcode


def _install_drain_handler(
    conn: multiprocessing.connection.Connection,
) -> None:
    """Make ``SIGTERM`` an orderly drain for a worker.

    Without a handler the default disposition kills the worker with exit
    code ``-SIGTERM``, indistinguishable from a hard death — a draining
    service would log its own shutdown as a worker crash.  The handler
    closes the request pipe (so a parent blocked on it sees EOF, not a
    torn frame) and exits 0.  ``os._exit`` is deliberate: the heap may be
    mid-request, and there is nothing worth unwinding — every finished
    item's reply was already sent.
    """
    import signal

    def _drain(signum: int, frame: Any) -> None:  # pragma: no cover - async
        try:
            conn.close()
        except OSError:
            pass
        os._exit(0)

    try:
        signal.signal(signal.SIGTERM, _drain)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass  # not the main thread / unsupported: keep the default


def _worker_main(
    conn: multiprocessing.connection.Connection,
    serve: Callable[[Any], Iterable[Any]],
    memory_limit_mb: int | None,
) -> None:
    """The child: serve requests until EOF or the ``None`` sentinel."""
    for worker in list(_LIVE):
        worker.conn.close()
    _LIVE.clear()
    # A fleet or pool worker supervises its own probes when its spec asks
    # for it, and a daemonic process may not fork.  Its probe children need no
    # daemon reaping: they exit on pipe EOF when it dies.
    multiprocessing.current_process().daemon = False
    _install_drain_handler(conn)
    if memory_limit_mb is not None:
        try:
            import resource

            limit = memory_limit_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):  # pragma: no cover
            pass  # unsupported platform: supervise without the memory cap
    while True:
        try:
            request = conn.recv()
            if request is None:
                break
            for reply in serve(request):
                conn.send(reply)
        except (EOFError, OSError, MemoryError):
            break  # the parent went away, or a reply could not be sent
    os._exit(0)


class WorkerProcess:
    """One forked worker and the parent's end of its pipe.

    The child applies ``RLIMIT_AS`` (when *memory_limit_mb* is set) and
    answers each request by sending every reply ``serve(request)`` yields,
    so the parent sees each item as soon as it finishes.  It exits 0 on
    pipe EOF, on the ``None`` sentinel, or on ``SIGTERM``; any other end is
    a death, reported by :meth:`recv` with its exit code.
    """

    def __init__(
        self,
        serve: Callable[[Any], Iterable[Any]],
        *,
        name: str,
        memory_limit_mb: int | None = None,
    ) -> None:
        self.conn, child_conn = MP_CONTEXT.Pipe()
        self.process = MP_CONTEXT.Process(
            target=_worker_main,
            args=(child_conn, serve, memory_limit_mb),
            daemon=True,
            name=name,
        )
        _LIVE.add(self)  # before the fork: the child closes its own end too
        self.process.start()
        child_conn.close()  # the child keeps its own copy

    def send(self, request: Any) -> bool:
        """Queue *request* (``None`` asks the worker to exit); False when
        the pipe is already broken."""
        try:
            self.conn.send(request)
        except OSError:
            return False
        return True

    def recv(self, timeout: float | None = None) -> Any:
        """The worker's next reply.

        Raises :class:`TimeoutError` when none arrives within *timeout*
        seconds (the worker is left running), and :class:`WorkerDied` when
        the pipe hits EOF (the worker is reaped first, so the exit code is
        known).
        """
        try:
            if timeout is None or self.conn.poll(timeout):
                return self.conn.recv()
        except (EOFError, OSError):
            self.kill(grace=_REAP_SECONDS)
            raise WorkerDied(self.process.exitcode) from None
        raise TimeoutError(f"no reply within {timeout:g}s")

    def kill(self, grace: float = 0.0) -> None:
        """Give the worker *grace* seconds to exit, then SIGKILL it; reap
        it and close the pipe (idempotent)."""
        _LIVE.discard(self)
        if grace:
            self.process.join(grace)
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=_REAP_SECONDS)
        self.conn.close()

    def stop(self) -> None:
        """Send the stop sentinel; :meth:`kill` the worker if it is still
        up after the grace period."""
        self.send(None)
        self.kill(grace=_REAP_SECONDS)

    def drain(self, timeout: float) -> bool:
        """SIGTERM the worker and wait up to *timeout* for an orderly (exit
        0) shutdown; reaps it either way.  True when it exited 0."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)
        clean = self.process.exitcode == 0
        self.kill()
        return clean


class _ProbeServer:
    """A probe worker's serve function: one outcome per ``(module, inputs)``.

    After a ``MemoryError`` it answers ``RESOURCE`` and stops serving the
    request: the heap may be compromised, so the parent restarts the worker
    and reruns the rest of the request on a fresh one.
    """

    def __init__(self, target: Any) -> None:
        self.target = target

    def __call__(self, batch: list) -> Iterable[TargetOutcome]:
        for module, inputs in batch:
            try:
                outcome = self.target.run(module, inputs)
            except MemoryError:
                yield TargetOutcome.resource(
                    "MemoryError: probe exceeded its memory limit"
                )
                return
            except BaseException as exc:  # noqa: BLE001 - the whole point
                outcome = TargetOutcome.worker_crash(
                    f"unhandled {type(exc).__name__}: {exc}"
                )
            yield outcome


class SupervisedTarget(TargetWrapper):
    """A drop-in target wrapper that fault-isolates every probe.

    Can stand anywhere a :class:`~repro.compilers.pipeline.Target` does —
    including inside interestingness tests, where the timeout bound is what
    keeps reduction from hanging on a flaky target.
    """

    def __init__(
        self, target: Any, config: RobustnessConfig, tracer: Any = NULL_TRACER
    ) -> None:
        super().__init__(target)
        self.config = config
        self.tracer = as_tracer(tracer)
        self._worker: WorkerProcess | None = None
        self._timeout_override: float | None = None

    # -- probe timeout -------------------------------------------------------------

    def set_timeout_override(self, timeout: float | None) -> None:
        """Tighten (never widen) the wall-clock bound for subsequent probes.

        The fault-tolerant reducer sets this to the reduction's *remaining*
        wall-clock budget before each candidate probe, so a single hung probe
        can overshoot ``max_seconds`` by at most the remaining budget — the
        effective bound is ``min(config.probe_timeout, override)``.  ``None``
        restores the configured timeout.
        """
        self._timeout_override = timeout

    @property
    def effective_timeout(self) -> float | None:
        configured = self.config.probe_timeout
        override = self._timeout_override
        if override is None:
            return configured
        if configured is None:
            return override
        return min(configured, override)

    # -- worker lifecycle ----------------------------------------------------------

    def _ensure_worker(self) -> WorkerProcess:
        if self._worker is not None and self._worker.process.is_alive():
            return self._worker
        self._kill_worker()
        self._worker = WorkerProcess(
            _ProbeServer(self.target),
            name=f"probe-{self.target.name}",
            memory_limit_mb=self.config.memory_limit_mb,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "supervisor.worker_start",
                target=self.target.name,
                worker_pid=self._worker.process.pid,
            )
        return self._worker

    def _kill_worker(self) -> None:
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.kill()

    def close(self) -> None:
        """Shut the worker down cleanly (sends the stop sentinel)."""
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.stop()

    def drain(self, timeout: float = 5.0) -> bool:
        """SIGTERM the worker and wait for an orderly (exit 0) shutdown.

        The drain path a stopping service uses instead of :meth:`close`
        when the worker may be mid-probe and the pipe cannot be trusted to
        deliver the stop sentinel.  Returns True when the worker exited 0
        (the SIGTERM handler's orderly path); a worker that already died
        hard, or ignores SIGTERM past *timeout*, reports an unclean drain.
        """
        worker, self._worker = self._worker, None
        return True if worker is None else worker.drain(timeout)

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self._kill_worker()
        except Exception:
            pass

    # -- the probe -----------------------------------------------------------------

    def run(self, module: Any, inputs: dict | None = None) -> TargetOutcome:
        """Compile and execute *module* under supervision."""
        return self.run_batch([(module, inputs)])[0]

    def run_batch(self, items: list) -> list:
        """Evaluate ``[(module, inputs), ...]``, one outcome per item, in
        order — identical to per-item :meth:`run` calls.

        The worker streams one outcome per finished probe, and each is
        awaited under the per-probe timeout.  A worker that hangs or dies
        charges only the item in flight; the items after it rerun on a
        fresh worker.
        """
        items = [(module, dict(inputs or {})) for module, inputs in items]
        outcomes: list = []
        while len(outcomes) < len(items):
            outcomes.extend(self._stream(items[len(outcomes):]))
        return outcomes

    def _stream(self, items: list) -> list:
        """Outcomes for a prefix of *items* (at least one): up to and
        including the first item whose worker faulted."""
        for _ in range(2):  # one retry if the previous worker died while idle
            worker = self._ensure_worker()
            if worker.send(items):
                break
            self._kill_worker()
        else:
            return [TargetOutcome.worker_crash("probe worker unreachable")]
        timeout = self.effective_timeout
        outcomes: list = []
        for _ in items:
            try:
                outcome = worker.recv(timeout)
            except TimeoutError:
                self._kill_worker()
                if self.tracer.enabled:
                    self.tracer.emit(
                        "supervisor.timeout",
                        target=self.target.name,
                        timeout_s=timeout,
                    )
                return outcomes + [TargetOutcome.timeout(timeout)]
            except WorkerDied as death:
                self._worker = None
                if self.tracer.enabled:
                    self.tracer.emit(
                        "supervisor.worker_crash",
                        target=self.target.name,
                        exitcode=death.exitcode,
                    )
                return outcomes + [
                    TargetOutcome.worker_crash(
                        f"probe worker died (exit code {death.exitcode})"
                    )
                ]
            outcomes.append(outcome)
            if outcome.kind is OutcomeKind.RESOURCE:
                self.close()  # the worker stopped serving: restart it
                break
        return outcomes


def find_supervised(target: Any) -> SupervisedTarget | None:
    """The :class:`SupervisedTarget` inside *target*'s wrapper chain, if any."""
    return find_wrapper(target, SupervisedTarget)


def supervise_targets(targets, config: RobustnessConfig, tracer: Any = None) -> list:
    """Wrap *targets* with supervision when the config asks for it.

    ``tracer`` (a :class:`~repro.observability.Tracer` or ``None``) receives
    ``supervisor.*`` lifecycle events — worker starts, timeout kills, hard
    crashes — from each wrapped target.
    """
    if not config.supervises:
        return list(targets)
    tracer = as_tracer(tracer)
    return [
        t
        if isinstance(t, SupervisedTarget)
        else SupervisedTarget(t, config, tracer=tracer)
        for t in targets
    ]


def close_targets(targets) -> None:
    """Shut down any supervised targets in *targets* (idempotent).

    Looks through wrapper chains (e.g. a caching wrapper around a supervised
    target), so close-on-finish works whatever the stacking order.
    """
    for target in targets:
        supervised = find_supervised(target)
        if supervised is not None:
            supervised.close()
