"""Catalogue of injected compiler bugs.

Every bug has a stable id, a kind, a host pass, and a description of its
trigger.  The catalogue is the evaluation's ground truth: two test cases
"trigger the same bug" exactly when the same bug id fired/crashed.  The
testing tools themselves never read bug ids — they see only crash messages,
validation failures, and output mismatches, as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BugKind(enum.Enum):
    CRASH = "crash"
    MISCOMPILE = "miscompile"
    INVALID_IR = "invalid-ir"


@dataclass(frozen=True)
class BugInfo:
    bug_id: str
    kind: BugKind
    pass_name: str
    trigger: str


_BUGS = [
    # constfold
    BugInfo("constfold-div-by-zero", BugKind.CRASH, "constfold",
            "folding OpSDiv/OpSRem with a constant zero divisor (dead code)"),
    BugInfo("constfold-overflow-saturate", BugKind.MISCOMPILE, "constfold",
            "i32 add/sub/mul folds saturate instead of wrapping"),
    BugInfo("constfold-srem-floor", BugKind.MISCOMPILE, "constfold",
            "OpSRem folds with floor semantics when signs differ"),
    BugInfo("constfold-select-swap", BugKind.MISCOMPILE, "constfold",
            "OpSelect with constant condition folds to the wrong arm"),
    BugInfo("constfold-fneg", BugKind.CRASH, "constfold",
            "folding OpFNegate of a float constant"),
    # copyprop
    BugInfo("copyprop-chain", BugKind.CRASH, "copyprop",
            "OpCopyObject chain of depth >= 3"),
    BugInfo("copyprop-phi-compare", BugKind.MISCOMPILE, "copyprop",
            "phi over same-opcode comparisons collapses to first incoming "
            "(Figure 8a Mesa analogue)"),
    # dce
    BugInfo("dce-unreachable-op", BugKind.CRASH, "dce",
            "any OpUnreachable in the module"),
    BugInfo("dce-kill-unreachable", BugKind.CRASH, "dce",
            "an unreachable block terminated by OpKill"),
    BugInfo("dce-store-accesschain", BugKind.MISCOMPILE, "dce",
            "stores lost for locals read only through access chains"),
    # simplifycfg
    BugInfo("simplifycfg-same-target", BugKind.CRASH, "simplifycfg",
            "OpBranchConditional with identical targets"),
    BugInfo("simplifycfg-stale-phi", BugKind.INVALID_IR, "simplifycfg",
            "block merge forgets successor phi fix-up (emits invalid IR)"),
    BugInfo("simplifycfg-kill-drop", BugKind.MISCOMPILE, "simplifycfg",
            "conditional edges into empty OpKill blocks are redirected"),
    BugInfo("simplifycfg-many-preds", BugKind.CRASH, "simplifycfg",
            "a block with >= 4 predecessors"),
    # mem2reg
    BugInfo("mem2reg-many-preds", BugKind.CRASH, "mem2reg",
            "phi insertion at a join with >= 3 predecessors"),
    BugInfo("mem2reg-phi-order", BugKind.MISCOMPILE, "mem2reg",
            "non-RPO block layout swaps phi incoming values "
            "(Pixel-5-style, Figure 8b analogue)"),
    # inline
    BugInfo("inline-dontinline", BugKind.CRASH, "inline",
            "a called DontInline function (Figure 3 SwiftShader analogue)"),
    BugInfo("inline-kill", BugKind.CRASH, "inline",
            "inlining a callee containing OpKill"),
    BugInfo("inline-arg-reuse", BugKind.MISCOMPILE, "inline",
            "all parameters bound to the first argument (same-typed params)"),
    BugInfo("inline-recursive", BugKind.CRASH, "inline",
            "a directly recursive function"),
    # layout
    BugInfo("layout-nonrpo", BugKind.CRASH, "layout",
            "function blocks not in reverse postorder"),
    BugInfo("layout-phi-rotate", BugKind.MISCOMPILE, "layout",
            "non-RPO layout swaps two-predecessor phi values "
            "(Figure 8b Pixel-5 analogue)"),
    # legalize (feature-presence crashes)
    BugInfo("legalize-nested-struct", BugKind.CRASH, "legalize",
            "struct type with a composite member"),
    BugInfo("legalize-deep-chain", BugKind.CRASH, "legalize",
            "access chain with >= 3 indices"),
    BugInfo("legalize-big-composite", BugKind.CRASH, "legalize",
            "OpCompositeConstruct with >= 4 constituents"),
    BugInfo("legalize-many-params", BugKind.CRASH, "legalize",
            "function with >= 4 parameters"),
    BugInfo("legalize-undef", BugKind.CRASH, "legalize",
            "any OpUndef"),
    BugInfo("legalize-select-composite", BugKind.CRASH, "legalize",
            "OpSelect producing a composite value"),
    BugInfo("legalize-float-eq", BugKind.CRASH, "legalize",
            "exact float equality comparison"),
    BugInfo("legalize-bool-vector", BugKind.CRASH, "legalize",
            "vector-of-bool type declaration"),
]

BUG_CATALOG: dict[str, BugInfo] = {bug.bug_id: bug for bug in _BUGS}

CRASH_BUGS = frozenset(b.bug_id for b in _BUGS if b.kind is BugKind.CRASH)
MISCOMPILE_BUGS = frozenset(b.bug_id for b in _BUGS if b.kind is BugKind.MISCOMPILE)
INVALID_IR_BUGS = frozenset(b.bug_id for b in _BUGS if b.kind is BugKind.INVALID_IR)


_BUGS_BY_PASS: dict[str, frozenset[str]] = {}
for _bug in _BUGS:
    _BUGS_BY_PASS.setdefault(_bug.pass_name, frozenset())
_BUGS_BY_PASS = {
    pass_name: frozenset(b.bug_id for b in _BUGS if b.pass_name == pass_name)
    for pass_name in _BUGS_BY_PASS
}

_NO_BUGS: frozenset[str] = frozenset()


def bugs_for_pass(pass_name: str) -> frozenset[str]:
    """The bug ids hosted by *pass_name* (empty for bug-free passes).

    The probe cache looks per-stage memo entries up by
    ``enabled_bugs & bugs_for_pass(name)``: a pass asks only about its *own*
    bugs, so its behaviour depends only on the module content and those
    answers, and entries are shared across targets whose bug sets differ
    only in other passes' bugs (``tests/compilers/test_bug_consults.py``
    checks the first half).
    """
    return _BUGS_BY_PASS.get(pass_name, _NO_BUGS)


def bug_info(bug_id: str) -> BugInfo:
    return BUG_CATALOG[bug_id]
