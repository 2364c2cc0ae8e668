"""Every ``repro.*`` package and module imports cleanly as the *first*
``repro`` import of a fresh interpreter.

The rest of the suite cannot see import cycles: ``conftest.py`` imports
``repro.corpus`` first, which initialises ``repro.core`` before anything
else.  Here each import runs in its own subprocess.
"""

from __future__ import annotations

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
