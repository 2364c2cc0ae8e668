"""Golden ``repro-reduce --out-json`` bytes.

The fixtures under ``golden/reduce_cli/`` pin what ``repro-reduce`` writes
for the ``arith_mix_0`` seed-0 log (a 47-transformation SwiftShader crash)
under four flag sets: the default reducer, the pass pipeline with a give-up
budget, speculative workers, and the fault-tolerant journaling reducer
(whose journal bytes are pinned too).  Reworking how the
CLI maps its flags onto the reducer must leave every byte unchanged.
Regenerate them only for an intentional change of the reduction result.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import reduce_main

GOLDEN = Path(__file__).parent / "golden" / "reduce_cli"
LOG = GOLDEN / "arith_mix_0_seed0.json"

CASES = {
    "default": [],
    "passes_default_giveup200": ["--reduce-passes", "default", "--giveup", "200"],
    "workers2": ["--reduce-workers", "2"],
}


def _reduce(flags, out_json: Path) -> None:
    code = reduce_main(
        [str(LOG), "--target", "SwiftShader", *flags, "--out-json", str(out_json)]
    )
    assert code == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_json_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "result.json"
    _reduce(CASES[name], out)
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_fault_tolerant_journal_and_out_json_match_golden(tmp_path, capsys):
    name = "retries1_timeout600_journal"
    journal = tmp_path / "reduce.jsonl"
    out = tmp_path / "result.json"
    flags = [
        "--reduce-retries",
        "1",
        "--reduce-timeout",
        "600",
        "--reduce-journal",
        str(journal),
    ]
    _reduce(flags, out)
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert journal.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()
