"""Supervised probe execution: run target probes in a child process.

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
from dataclasses import dataclass
from typing import Any

from repro.compilers.base import TargetOutcome
from repro.observability import NULL_TRACER, as_tracer
from repro.robustness.config import RobustnessConfig

#: The one multiprocessing context every worker process in the package
#: starts from (probe children, service fleet workers, worker pools).
#: ``fork`` keeps worker start-up cheap and lets non-picklable test doubles
#: ride along; platforms without it (Windows, macOS spawn-default) fall back
#: to the default context, which requires picklable targets.
MP_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


def inherited_ends(*conns: multiprocessing.connection.Connection) -> tuple:
    """The parent-side pipe ends a child about to start will hold a copy of.

    A forked child inherits every descriptor open in the parent, including
    the parent's end of its own request pipe; as long as the child holds
    that copy, its ``recv()`` never sees EOF, so it would outlive a
    SIGKILLed parent.  The child closes these first.  A spawned child
    inherits nothing, so there is nothing to close.
    """
    return conns if MP_CONTEXT.get_start_method() == "fork" else ()


def close_inherited(conns: tuple) -> None:
    """Close, in the child, the parent-side ends :func:`inherited_ends` named."""
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _install_drain_handler(
    conn: multiprocessing.connection.Connection,
) -> None:
    """Make ``SIGTERM`` an orderly drain for a probe worker.

    Without a handler the default disposition kills the worker with exit
    code ``-SIGTERM``, indistinguishable from a hard death — a draining
    service would log its own shutdown as a worker crash.  The handler
    closes the request pipe (so a parent blocked on it sees EOF, not a
    torn frame) and exits 0.  ``os._exit`` is deliberate: the heap may be
    mid-probe, and there is nothing worth unwinding — probe workers hold
    no buffered results, every completed outcome was already sent.
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


def _probe_worker_main(
    conn: multiprocessing.connection.Connection,
    target: Any,
    memory_limit_mb: int | None,
    inherited: tuple,
) -> None:
    """Worker loop: receive a batch of ``(module, inputs)`` probes, answer
    with their outcomes in one round-trip."""
    close_inherited(inherited)
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
            batch = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if batch is None:
            return  # orderly shutdown
        # A MemoryError replies with the outcomes computed so far (the parent
        # re-runs the rest on a fresh worker) and then restarts: the heap may
        # be compromised.
        outcomes: list = []
        restart = False
        for module, inputs in batch:
            try:
                outcomes.append(target.run(module, inputs))
            except MemoryError:
                del module, inputs  # free headroom so the reply itself can send
                outcomes.append(
                    TargetOutcome.resource(
                        "MemoryError: probe exceeded its memory limit"
                    )
                )
                restart = True
                break
            except BaseException as exc:  # noqa: BLE001 - the whole point
                outcomes.append(
                    TargetOutcome.worker_crash(
                        f"unhandled {type(exc).__name__}: {exc}"
                    )
                )
        try:
            conn.send(outcomes)
        except (BrokenPipeError, OSError, MemoryError):
            return
        if restart:
            return


@dataclass
class _Worker:
    process: Any
    conn: multiprocessing.connection.Connection


class SupervisedTarget:
    """A drop-in target wrapper that fault-isolates every probe.

    Proxies the identity attributes the harness reads (``name`` & co.), so a
    supervised target can stand anywhere a :class:`~repro.compilers.pipeline.
    Target` does — including inside interestingness tests, where the timeout
    bound is what keeps reduction from hanging on a flaky target.
    """

    def __init__(
        self, target: Any, config: RobustnessConfig, tracer: Any = NULL_TRACER
    ) -> None:
        self.target = target
        self.config = config
        self.tracer = as_tracer(tracer)
        self._worker: _Worker | None = None
        self._timeout_override: float | None = None

    # -- identity proxies ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.target.name

    @property
    def version(self) -> str:
        return self.target.version

    @property
    def gpu_type(self) -> str:
        return self.target.gpu_type

    @property
    def enabled_bugs(self):
        return self.target.enabled_bugs

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

    def _ensure_worker(self) -> _Worker:
        if self._worker is not None and self._worker.process.is_alive():
            return self._worker
        if self._worker is not None:
            self._reap()
        parent_conn, child_conn = MP_CONTEXT.Pipe()
        process = MP_CONTEXT.Process(
            target=_probe_worker_main,
            # Only this target's end: another target's child forked later
            # holds this child's parent end until its own EOF, so children
            # of a killed parent still exit, in reverse fork order.
            args=(
                child_conn,
                self.target,
                self.config.memory_limit_mb,
                inherited_ends(parent_conn),
            ),
            daemon=True,
            name=f"probe-{self.target.name}",
        )
        process.start()
        child_conn.close()  # the parent end is ours; the child keeps its own
        self._worker = _Worker(process, parent_conn)
        if self.tracer.enabled:
            self.tracer.emit(
                "supervisor.worker_start", target=self.target.name, worker_pid=process.pid
            )
        return self._worker

    def _reap(self, *, kill: bool = False) -> None:
        worker = self._worker
        if worker is None:
            return
        self._worker = None
        try:
            if kill and worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=1.0)
        except (ValueError, OSError):  # pragma: no cover - already gone
            pass
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def close(self) -> None:
        """Shut the worker down cleanly (sends the stop sentinel)."""
        worker = self._worker
        if worker is None:
            return
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._reap()

    def drain(self, timeout: float = 5.0) -> bool:
        """SIGTERM the worker and wait for an orderly (exit 0) shutdown.

        The drain path a stopping service uses instead of :meth:`close`
        when the worker may be mid-probe and the pipe cannot be trusted to
        deliver the stop sentinel.  Returns True when the worker exited 0
        (the SIGTERM handler's orderly path); a worker that already died
        hard, or ignores SIGTERM past *timeout*, reports an unclean drain.
        """
        worker = self._worker
        if worker is None:
            return True
        clean = True
        try:
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=timeout)
            clean = worker.process.exitcode == 0
        except (ValueError, OSError):  # pragma: no cover - already gone
            pass
        self._reap(kill=True)
        return clean

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self._reap(kill=True)
        except Exception:
            pass

    # -- the probe -----------------------------------------------------------------

    def run(self, module: Any, inputs: dict | None = None) -> TargetOutcome:
        """Compile and execute *module* under supervision."""
        return self.run_batch([(module, inputs)])[0]

    def run_batch(self, items: list) -> list:
        """Evaluate ``[(module, inputs), ...]`` in one worker round-trip.

        Returns one outcome per item, in order, byte-identical to per-item
        :meth:`run` calls.  The timeout budget scales with the batch size; a
        worker that dies mid-batch answers for the items it finished and the
        remainder re-runs individually on a fresh worker.
        """
        items = [(module, dict(inputs or {})) for module, inputs in items]
        if not items:
            return []
        worker = None
        for _ in range(2):  # one retry if the previous worker died while idle
            worker = self._ensure_worker()
            try:
                worker.conn.send(items)
                break
            except (BrokenPipeError, OSError):
                self._reap(kill=True)
                worker = None
        if worker is None:
            crash = TargetOutcome.worker_crash("probe worker unreachable")
            return [crash] * len(items)

        timeout = self.effective_timeout
        budget = None if timeout is None else timeout * len(items)
        try:
            ready = worker.conn.poll(budget)
        except (BrokenPipeError, OSError):
            ready = False
        if not ready:
            self._reap(kill=True)
            if self.tracer.enabled:
                self.tracer.emit(
                    "supervisor.timeout",
                    target=self.target.name,
                    timeout_s=budget,
                )
            return [TargetOutcome.timeout(timeout)] * len(items)
        try:
            outcomes = worker.conn.recv()
        except (EOFError, OSError):
            exitcode = worker.process.exitcode
            self._reap(kill=True)
            detail = (
                f"probe worker died (exit code {exitcode})"
                if exitcode is not None
                else "probe worker died mid-probe"
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    "supervisor.worker_crash",
                    target=self.target.name,
                    exitcode=exitcode,
                )
            return [TargetOutcome.worker_crash(detail)] * len(items)
        if not worker.process.is_alive():
            self._reap()  # orderly post-fault restart (e.g. after MemoryError)
        while len(outcomes) < len(items):  # finish what the dead worker left
            outcomes.append(self.run(*items[len(outcomes)]))
        return outcomes


def find_supervised(target: Any) -> SupervisedTarget | None:
    """The :class:`SupervisedTarget` inside *target*'s wrapper chain, if any.

    Probe targets stack wrappers (caching, delay doubles, supervision); this
    walks ``.target`` / ``._target`` links until it finds the supervised
    layer, with a cycle guard so a malformed chain can't loop forever.
    """
    seen: set[int] = set()
    current = target
    while current is not None and id(current) not in seen:
        if isinstance(current, SupervisedTarget):
            return current
        seen.add(id(current))
        current = getattr(current, "target", None) or getattr(
            current, "_target", None
        )
    return None


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
