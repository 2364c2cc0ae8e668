"""Every pass asks only about its own bugs.

The probe cache looks a stage record up by ``(digest_in, pass_name)`` and
the target's enabled bugs restricted to ``bugs_for_pass(pass_name)``, and a
record keeps only the bugs the run consulted.  That is sound only if a pass
never queries (``bugs.active``/``bugs.crash``) or fires a bug hosted by
another pass.  Over the corpus and fuzzed variants, under every Table 2 bug
set and both bug-free pipelines, each pass run (with a fresh
:class:`BugContext`, as the cache runs it) must stay inside its own bugs.
"""

from __future__ import annotations

from repro.compilers.base import BugContext, CompilerCrash
from repro.compilers.bugs import bugs_for_pass

from tests.compilers.test_changed_contract import _modules, _pipelines


def test_passes_consult_only_their_own_bugs(references, donors):
    pipelines = _pipelines()
    consulted_runs = 0
    for module in _modules(references, donors):
        for name, passes, enabled in pipelines:
            work = module.clone()
            for opt_pass in passes:
                bugs = BugContext(enabled)
                bugs.current_pass = opt_pass.name
                own = bugs_for_pass(opt_pass.name)
                crashed = None
                try:
                    if opt_pass.run(work, bugs):
                        work.touch()
                except CompilerCrash as crash:
                    crashed = crash.bug_id
                assert bugs.consulted <= own, (
                    f"{name}: {opt_pass.name} consulted foreign bugs "
                    f"{sorted(bugs.consulted - own)}"
                )
                assert bugs.fired <= own, (
                    f"{name}: {opt_pass.name} fired foreign bugs "
                    f"{sorted(bugs.fired - own)}"
                )
                consulted_runs += bool(bugs.consulted)
                if crashed is not None:
                    assert crashed in bugs.consulted
                    break
    assert consulted_runs > 0
