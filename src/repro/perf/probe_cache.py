"""Content-hash compile caching for probes.

Every probe in this project is ``target.run(module, inputs)``: clone the
module, run a ~10-pass pipeline over the clone, validate/execute, classify.
Campaigns and reductions probe *families* of closely related modules — the
same reference under different transformation prefixes, or the same variant
with different chunks removed — so most of that work is recomputation.

:class:`ProbeCache` memoizes along three axes, keyed by
:meth:`repro.ir.module.Module.content_digest`:

* **full-probe outcomes** — ``(target identity, digest, inputs)`` →
  :class:`~repro.compilers.base.TargetOutcome`;
* **per-pass stages** — ``(digest_in, pass_name)`` → records of
  ``(enabled bugs, fired bugs, digest_out)``, so two candidates sharing a
  long pipeline prefix (the common case during reduction) replay the shared
  prefix as dictionary lookups and only run the suffix.  Entries are shared
  across targets because a pass's behaviour depends only on the module
  content and *its own* enabled bugs (see
  :func:`repro.compilers.bugs.bugs_for_pass`) — and, further, a record
  computed under enabled set ``R`` that fired ``F`` serves any target whose
  relevant set ``S`` satisfies ``F ⊆ S ⊆ R``: bugs in ``R`` that did not
  trigger on this content cannot change behaviour when disabled, so one
  bug-heavy target's run answers for every subset-configured target
  (Table 2's bug sets are deliberately subset-ordered, so this is the
  common case);
* **execution/validation** — ``(digest, inputs, fuel)`` → result, shared
  across *all* targets whose pipelines converge on the same optimized module.

Soundness rests on two properties of the pipeline: ``Target.compile`` runs
passes over a private clone (so cached snapshots can't alias live state), and
``Pass.run`` is a pure function of the module content plus its enabled bugs
(no hidden state between passes beyond ``bugs.fired``, which we record per
stage).  Fault outcomes (timeout/resource/worker-crash) are never cached —
they describe the environment, not the module — so retry policies keep
working.  ``verify_every=N`` re-runs every Nth hit uncached and compares;
a mismatch evicts everything (poisoned-cache protection).

Lifetime: every memo is an LRU with a cap, and the owner clears the cache
at the end of its natural unit of work.  A :class:`~repro.core.harness.
Harness` clears the cache it built when a seed starts (a seed's variant is
new content); the campaign service clears its finalize harness's cache once
a campaign's reductions end; a loop of reductions keeps the harness-wide
LRU, because successive reductions probe variants of the same reference
programs.  :meth:`clear` keeps the stats.

The module store is narrower: it lives for one *fan-out*, several targets
probing the same input (``with cache.fan_out():``, which
:meth:`~repro.core.harness.Harness.run_seed` wraps around its target loop).
There the targets branch from shared pipeline prefixes, so a stored
snapshot saves replaying one.  Outside a fan-out — every reduction — nothing
is stored, because a reduction's candidates are new content that almost
never reads a snapshot back; a mid-pipeline materialization replays the
recorded prefix instead, as it does for an evicted snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any

from repro.compilers.base import (
    FAULT_KINDS,
    BugContext,
    CompilerCrash,
    TargetOutcome,
)
from repro.compilers.bugs import BUG_CATALOG, BugKind, bugs_for_pass
from repro.compilers.pipeline import Target, tool_pipeline
from repro.compilers.wrapper import TargetWrapper
from repro.interp.errors import ExecError
from repro.interp.interpreter import execute
from repro.ir.module import IrError, Module
from repro.ir.validator import validate

#: LRU caps of the outcome, stage and execution memos and the module store.
#: The validation memo shares the execution memo's cap.  The module store
#: is small and lives for one fan-out (see the module docstring): each
#: snapshot is a whole module, most are never read back even there (128 of
#: 361 over a 40-seed campaign), and an evicted one is rebuilt by replaying
#: its recorded prefix.
MAX_OUTCOMES = 8192
MAX_STAGES = 8192
MAX_EXEC = 8192
MAX_MODULES = 32


@dataclass
class ProbeCacheStats:
    """Hit/miss counters for every cache layer (mergeable across workers)."""

    probes: int = 0
    outcome_hits: int = 0
    outcome_misses: int = 0
    stage_hits: int = 0
    stage_misses: int = 0
    exec_hits: int = 0
    exec_misses: int = 0
    validate_hits: int = 0
    optimize_hits: int = 0
    optimize_misses: int = 0
    store_rebuilds: int = 0
    verified: int = 0
    poisoned: int = 0
    uncacheable: int = 0

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge_json(self, delta: dict) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + delta.get(f.name, 0))


def _freeze_value(value):
    if isinstance(value, list):
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_value(v)) for k, v in value.items()))
    return value


def _freeze_inputs(inputs: dict | None) -> tuple:
    return tuple(sorted((k, _freeze_value(v)) for k, v in (inputs or {}).items()))


def _target_key(target: Target) -> tuple:
    return (
        target.name,
        target.version,
        target.enabled_bugs,
        target.validates_output,
        target.fuel,
        tuple(type(p).__name__ for p in target.passes),
    )


class ProbeCache:
    """Memoizes probe outcomes, pipeline stages, and executions by digest."""

    def __init__(self, *, verify_every: int = 0) -> None:
        self.stats = ProbeCacheStats()
        self.verify_every = verify_every
        #: full-probe outcomes: key -> TargetOutcome
        self._outcomes: OrderedDict[tuple, TargetOutcome] = OrderedDict()
        #: stage memo: (digest_in, pass_name) -> list of records, each
        #: ("ok", enabled, fired, digest_out) |
        #: ("crash", enabled, needed, message, bug_id, pass_name);
        #: a record serves a lookup with relevant set S iff fired ⊆ S ⊆ enabled.
        self._stages: OrderedDict[tuple, list] = OrderedDict()
        #: execution memo: (digest, inputs, fuel) -> ("ok", result)|("err", msg)
        self._exec: OrderedDict[tuple, tuple] = OrderedDict()
        #: validation memo: digest -> tuple of errors
        self._validate: OrderedDict[str, tuple] = OrderedDict()
        #: module snapshots keyed by digest, for rematerializing mid-pipeline
        #: state without replaying the prefix.  Entries are frozen: always
        #: stored and handed out as clones.  Filled only inside
        #: :meth:`fan_out`, and emptied when the outermost scope ends.
        self._modules: OrderedDict[str, Module] = OrderedDict()
        self._fan_out_depth = 0

    def clear(self) -> None:
        """Evict everything (stats survive — they feed the report)."""
        self._outcomes.clear()
        self._stages.clear()
        self._exec.clear()
        self._validate.clear()
        self._modules.clear()

    @contextmanager
    def fan_out(self):
        """Scope in which several targets probe the same input: stage
        outputs are kept as module snapshots for the other targets' shared
        prefixes.  Scopes nest; leaving the outermost one (also by an
        exception) empties the store."""
        self._fan_out_depth += 1
        try:
            yield
        finally:
            self._fan_out_depth -= 1
            if not self._fan_out_depth:
                self._modules.clear()

    # -- full probes ---------------------------------------------------------------

    def run(self, target: Target, module: Module, inputs: dict | None = None):
        """Memoized, byte-identical equivalent of ``target.run(module, inputs)``."""
        self.stats.probes += 1
        digest = module.content_digest()
        inputs_key = _freeze_inputs(inputs)
        key = ("run", _target_key(target), digest, inputs_key)
        cached = self._outcomes.get(key)
        if cached is not None:
            self._outcomes.move_to_end(key)
            self.stats.outcome_hits += 1
            verified = self._maybe_verify(target, module, inputs, cached)
            if verified is not None:
                return verified
            return cached
        self.stats.outcome_misses += 1
        outcome = self._staged_run(target, module, digest, inputs_key, inputs)
        self._store(self._outcomes, key, outcome, MAX_OUTCOMES)
        return outcome

    def _maybe_verify(self, target, module, inputs, cached):
        """Every Nth hit, recompute uncached and compare (poison detector)."""
        if not self.verify_every:
            return None
        if self.stats.outcome_hits % self.verify_every:
            return None
        fresh = target.run(module, inputs)
        if fresh == cached:
            self.stats.verified += 1
            return None
        self.stats.poisoned += 1
        self.clear()
        return fresh

    # -- staged pipeline -----------------------------------------------------------

    def _staged_run(self, target, module, digest, inputs_key, inputs):
        """Recompute ``target.run`` through the stage/exec memos."""
        try:
            current, fired, work = self._staged_compile(
                target.passes, target.enabled_bugs, module, digest
            )
        except CompilerCrash as crash:
            return TargetOutcome.crash(crash.message, crash.bug_id)
        except (IrError, RecursionError) as exc:  # defensive, as in Target.run
            return TargetOutcome.crash(f"internal error: {exc}", None)

        materialized = work

        def final_module() -> Module:
            nonlocal materialized
            if materialized is None:
                materialized = self._materialize(
                    target.passes,
                    target.enabled_bugs,
                    module,
                    digest,
                    len(target.passes),
                    current,
                )
            return materialized

        if target.validates_output:
            errors = self._validate.get(current)
            if errors is not None:
                self._validate.move_to_end(current)
                self.stats.validate_hits += 1
            else:
                errors = tuple(validate(final_module()))
                self._store(self._validate, current, errors, MAX_EXEC)
            if errors:
                fired_invalid = [
                    b for b in fired if BUG_CATALOG[b].kind is BugKind.INVALID_IR
                ]
                return TargetOutcome.invalid(
                    list(errors), bug_id=fired_invalid[0] if fired_invalid else None
                )

        exec_key = (current, inputs_key, target.fuel)
        record = self._exec.get(exec_key)
        if record is not None:
            self._exec.move_to_end(exec_key)
            self.stats.exec_hits += 1
        else:
            self.stats.exec_misses += 1
            try:
                record = ("ok", execute(final_module(), inputs, fuel=target.fuel))
            except ExecError as exc:
                record = ("err", f"runtime fault: {type(exc).__name__}: {exc}")
            self._store(self._exec, exec_key, record, MAX_EXEC)
        if record[0] == "ok":
            return TargetOutcome.ok(record[1], frozenset(fired))
        fired_invalid = [
            b for b in fired if BUG_CATALOG[b].kind is BugKind.INVALID_IR
        ]
        return TargetOutcome.crash(
            record[1], fired_invalid[0] if fired_invalid else None
        )

    def _staged_compile(self, passes, enabled, module, digest):
        """Run the pipeline through the stage memo.

        Returns ``(final_digest, fired_bugs, work_module_or_None)`` — the
        module is ``None`` when every stage hit and nothing was materialized.
        Raises :class:`CompilerCrash` exactly when the uncached pipeline would.
        """
        current = digest
        fired: set[str] = set()
        work: Module | None = None
        for index, opt_pass in enumerate(passes):
            relevant = enabled & bugs_for_pass(opt_pass.name)
            stage_key = (current, opt_pass.name)
            record = self._lookup_stage(stage_key, relevant)
            if record is not None:
                self.stats.stage_hits += 1
                if record[0] == "crash":
                    raise CompilerCrash(record[3], record[4], record[5])
                _, _, delta, digest_out = record
                fired.update(delta)
                if digest_out != current:
                    work = None  # the live module no longer matches
                current = digest_out
                continue
            self.stats.stage_misses += 1
            if work is None:
                work = self._materialize(
                    passes, enabled, module, digest, index, current
                )
            bugs = BugContext(enabled)
            bugs.current_pass = opt_pass.name
            try:
                changed = opt_pass.run(work, bugs)
            except CompilerCrash as crash:
                # Reusable only when the whole trigger chain — bugs fired
                # before the crash plus the crashing bug — is enabled.
                needed = frozenset(bugs.fired)
                needed |= {crash.bug_id} if crash.bug_id else relevant
                self._store_stage(
                    stage_key,
                    (
                        "crash",
                        relevant,
                        needed,
                        crash.message,
                        crash.bug_id,
                        crash.pass_name,
                    ),
                )
                raise
            # A pass that reports no change left the module as it was (the
            # ``Pass.run`` contract), so the cached digest still holds.
            if changed:
                work.touch()
            digest_out = work.content_digest()
            delta = frozenset(bugs.fired)
            self._store_stage(stage_key, ("ok", relevant, delta, digest_out))
            self._remember_module(digest_out, work)
            fired.update(delta)
            current = digest_out
        return current, fired, work

    def _lookup_stage(self, stage_key: tuple, relevant: frozenset):
        """Find a record whose behaviour is provably identical under
        *relevant*: one computed with ``enabled ⊇ relevant`` whose fired set
        is ``⊆ relevant`` (enabled-but-unfired bugs cannot change behaviour
        when disabled; see the module docstring)."""
        records = self._stages.get(stage_key)
        if records is None:
            return None
        self._stages.move_to_end(stage_key)
        for record in records:
            if record[2] <= relevant <= record[1]:
                return record
        return None

    def _store_stage(self, stage_key: tuple, record: tuple) -> None:
        records = self._stages.get(stage_key)
        if records is None:
            records = []
            self._stages[stage_key] = records
            while len(self._stages) > MAX_STAGES:
                self._stages.popitem(last=False)
        self._stages.move_to_end(stage_key)
        # Drop records this one dominates (same fired set, smaller enabled).
        records[:] = [
            r for r in records if not (r[2] == record[2] and r[1] <= record[1])
        ]
        records.append(record)

    def _materialize(self, passes, enabled, module, digest, index, current):
        """Produce a live module whose digest is *current* (pre-pass *index*)."""
        if current == digest:
            return module.clone()
        snapshot = self._modules.get(current)
        if snapshot is not None:
            self._modules.move_to_end(current)
            return snapshot.clone()
        # Snapshot evicted: replay the recorded-ok prefix (cannot crash).
        self.stats.store_rebuilds += 1
        work = module.clone()
        bugs = BugContext(enabled)
        for opt_pass in passes[:index]:
            bugs.current_pass = opt_pass.name
            opt_pass.run(work, bugs)
            work.touch()
        return work

    def _remember_module(self, digest: str, module: Module) -> None:
        if not self._fan_out_depth:
            return
        # A snapshot already held under this digest is interchangeable with
        # *module* when the id bounds match too (the digest ignores
        # ``id_bound``, and mem2reg allocates fresh ids from it), so only
        # refresh its LRU position instead of cloning a duplicate.
        held = self._modules.get(digest)
        if held is not None and held.id_bound == module.id_bound:
            self._modules.move_to_end(digest)
            return
        self._store(self._modules, digest, module.clone(), MAX_MODULES)

    @staticmethod
    def _store(store: OrderedDict, key, value, cap: int) -> None:
        store[key] = value
        store.move_to_end(key)
        while len(store) > cap:
            store.popitem(last=False)

    # -- tool optimize -------------------------------------------------------------

    _TOOL_PASSES: list | None = None

    def optimize(self, module: Module, passes=None) -> Module:
        """Memoized, byte-identical equivalent of ``pipeline.optimize``."""
        if passes is None:
            if ProbeCache._TOOL_PASSES is None:
                ProbeCache._TOOL_PASSES = tool_pipeline()
            passes = ProbeCache._TOOL_PASSES
        digest = module.content_digest()
        # Bug-free pipeline: every stage key uses relevant == frozenset(),
        # sharing entries with bug-enabled targets' bug-free passes.
        current, _fired, work = self._staged_compile(
            passes, frozenset(), module, digest
        )
        if work is not None:
            self.stats.optimize_misses += 1
            return work
        self.stats.optimize_hits += 1
        return self._materialize(passes, frozenset(), module, digest, len(passes), current)

    # -- generic-target memo -------------------------------------------------------

    def memo_run(self, target: Any, module: Module, inputs: dict | None = None):
        """Outcome-memo for targets we can't stage (supervised, doubles)."""
        self.stats.probes += 1
        key = self._memo_key(target, module, inputs)
        cached = self._outcomes.get(key)
        if cached is not None:
            self._outcomes.move_to_end(key)
            self.stats.outcome_hits += 1
            verified = self._maybe_verify(target, module, inputs, cached)
            if verified is not None:
                return verified
            return cached
        outcome = target.run(module, inputs)
        self.stats.outcome_misses += 1
        if outcome.kind in FAULT_KINDS:
            self.stats.uncacheable += 1  # environment, not content: never cache
        else:
            self._store(self._outcomes, key, outcome, MAX_OUTCOMES)
        return outcome

    @staticmethod
    def _memo_key(target, module, inputs) -> tuple:
        # id(target) scopes the memo to this exact wrapper instance; generic
        # targets have no stable structural identity we can trust.
        return ("memo", id(target), module.content_digest(), _freeze_inputs(inputs))


class CachingTarget(TargetWrapper):
    """A drop-in target wrapper that routes probes through a :class:`ProbeCache`.

    Plain :class:`~repro.compilers.pipeline.Target` instances get the full
    staged treatment; anything else (supervised targets, test doubles) gets
    the outcome memo, which still never caches fault outcomes.
    """

    def __init__(self, target: Any, cache: ProbeCache) -> None:
        super().__init__(target)
        self.cache = cache
        self._staged = isinstance(target, Target)

    # -- probes --------------------------------------------------------------------

    def run(self, module: Module, inputs: dict | None = None):
        if self._staged:
            return self.cache.run(self.target, module, inputs)
        return self.cache.memo_run(self.target, module, inputs)


class CachedOptimizer:
    """Callable standing in for :func:`repro.compilers.pipeline.optimize`."""

    def __init__(self, cache: ProbeCache) -> None:
        self.cache = cache

    def __call__(self, module: Module, passes=None) -> Module:
        return self.cache.optimize(module, passes)
