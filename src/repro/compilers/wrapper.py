"""Target wrappers: objects that stand in for a target and forward to it.

Probe targets stack wrappers (caching, supervision, the ``--probe-delay``
testing aid).  Each wrapper keeps the target it wraps in ``.target`` and
proxies the identity attributes the harness reads, so a wrapped target can
stand anywhere a :class:`~repro.compilers.pipeline.Target` does.
:func:`find_wrapper` walks the chain, whatever the stacking order.
"""

from __future__ import annotations

import time
from typing import Any


class TargetWrapper:
    """Base for wrappers: holds ``.target`` and proxies its identity."""

    def __init__(self, target: Any) -> None:
        self.target = target

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


def find_wrapper(target: Any, cls: type) -> Any:
    """The first *cls* instance among *target* and the targets it wraps
    (along ``.target`` links), or ``None``; a cycle guard keeps a malformed
    chain from looping."""
    seen: set[int] = set()
    while target is not None and id(target) not in seen:
        if isinstance(target, cls):
            return target
        seen.add(id(target))
        target = getattr(target, "target", None)
    return None


class DelayedTarget(TargetWrapper):
    """Testing aid (``repro-reduce --probe-delay``): add fixed latency to
    every probe so a reduction runs long enough for CI's fault-injection job
    to ``SIGKILL`` it mid-round before resuming it."""

    def __init__(self, target: Any, delay: float) -> None:
        super().__init__(target)
        #: Read by ``Harness.finding_probe_spec`` so parallel-reduction
        #: workers rebuild the same delayed target.
        self.probe_delay = delay

    def run(self, module, inputs=None):
        time.sleep(self.probe_delay)
        return self.target.run(module, inputs)
