"""CLI entry-point tests (fuzz / reduce / dedup / campaign)."""

import json

import pytest

from repro.cli import campaign_main, dedup_main, fuzz_main, reduce_main


def test_fuzz_writes_replayable_log(tmp_path, capsys):
    out = tmp_path / "variant.json"
    code = fuzz_main(["arith_mix_0", "--seed", "3", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["reference"] == "arith_mix_0"
    assert record["seed"] == 3
    assert isinstance(record["transformations"], list)
    stdout = capsys.readouterr().out
    assert "OpFunction" in stdout  # the variant disassembly is printed


def test_fuzz_rejects_unknown_reference(tmp_path):
    with pytest.raises(SystemExit):
        fuzz_main(["no_such_program", "--out", str(tmp_path / "x.json")])


def test_reduce_roundtrip(tmp_path, capsys):
    out = tmp_path / "variant.json"
    # Search for a seed whose variant trips SwiftShader.
    reduced = False
    for seed in range(60):
        fuzz_main(
            ["call_helper_0", "--seed", str(seed), "--out", str(out), "--max-transformations", "100"]
        )
        capsys.readouterr()
        code = reduce_main([str(out), "--target", "SwiftShader"])
        stdout = capsys.readouterr().out
        if code == 0:
            assert "reduced" in stdout
            assert "transformations" in stdout
            reduced = True
            break
    assert reduced, "no SwiftShader finding in 60 seeds"


def test_reduce_replays_the_logged_sequence(tmp_path, capsys):
    out = tmp_path / "variant.json"
    fuzz_main(
        [
            "call_helper_0",
            "--seed",
            "0",
            "--out",
            str(out),
            "--max-transformations",
            "30",
        ]
    )
    assert len(json.loads(out.read_text())["transformations"]) == 30
    capsys.readouterr()
    assert reduce_main([str(out), "--target", "SwiftShader"]) == 0
    assert "reduced 30 ->" in capsys.readouterr().out


def test_dedup_cli(tmp_path, capsys):
    logs = []
    for seed in (1, 2):
        out = tmp_path / f"v{seed}.json"
        fuzz_main(["branchy_0", "--seed", str(seed), "--out", str(out)])
        logs.append(str(out))
    capsys.readouterr()
    code = dedup_main(logs)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "investigate" in stdout


def test_campaign_cli(capsys):
    code = campaign_main(["--seeds", "10", "--max-transformations", "60"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "distinct signatures" in stdout
    assert "SwiftShader" in stdout
