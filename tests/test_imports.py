"""Every ``repro.*`` package and module imports cleanly as the *first*
``repro`` import of a fresh interpreter.

The rest of the suite cannot see import cycles: ``conftest.py`` imports
``repro.corpus`` first, which initialises ``repro.core`` before anything
else.  Here each import runs in its own subprocess.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Top-level packages and modules, plus the leaf modules that sit at the
#: bottom of the historical robustness <-> core cycle.
NAMES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules([str(SRC / "repro")])
) + ["repro.robustness.journal", "repro.robustness.reduction"]


@pytest.mark.parametrize("name", NAMES)
def test_imports_first_in_a_fresh_interpreter(name):
    completed = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_decoding_a_sequence_needs_only_the_protocol_module():
    """Transformation classes register themselves when the library is
    imported; decoding must not depend on who imported it first."""
    from repro.core.transformation import sequence_to_json
    from repro.core.transformations import AddConstant, ToggleFunctionControl

    records = sequence_to_json(
        [AddConstant(2, 1, True), ToggleFunctionControl(5, "Inline")]
    )
    code = (
        "import json, sys\n"
        "from repro.core.transformation import sequence_from_json, sequence_to_json\n"
        "records = json.loads(sys.argv[1])\n"
        "assert sequence_to_json(sequence_from_json(records)) == records\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, json.dumps(records)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_a_campaign_harness_imports_no_reduction_or_service_robustness():
    """A default campaign harness needs only quarantine accounting and
    probe supervision; ``repro.robustness`` resolves its re-exports on first
    use, so the reduction envelope, journals, chaos seam and breaker stay
    unimported."""
    code = (
        "import sys\n"
        "from repro.compilers import make_targets\n"
        "from repro.core.harness import Harness\n"
        "from repro.corpus import donor_programs, reference_programs\n"
        "Harness(make_targets(), reference_programs(), donor_programs())\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = set(completed.stdout.split())
    assert "repro.robustness.supervisor" in loaded
    unused = {
        f"repro.robustness.{name}"
        for name in ("reduction", "journal", "chaos", "breaker")
    }
    assert not loaded & unused, sorted(loaded & unused)
