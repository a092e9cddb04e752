"""Tests for the ``overload`` suite grid through the CLI."""

import json

from repro.harness.cli import main


def test_quick_run_prints_the_acceptance_tables(capsys):
    code = main(["run", "overload", "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert "flash crowd" in out
    assert "no-shed" in out and "VIOLATED" in out
    for policy in ("drop-oldest", "probabilistic", "fair"):
        assert policy in out
    assert "MET" in out and "PASS" in out and "FAIL" not in out
    assert "per-tenant fairness" in out
    assert "gray failure: slow-node" in out


def test_out_dir_gets_text_and_json(tmp_path, capsys):
    code = main([
        "run", "overload", "--quick", "--set", "policy=fair",
        "--set", "fault=none", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "overload.txt").exists()
    rows = json.loads((tmp_path / "overload.json").read_text())
    assert rows
    for row in rows:
        assert row["figure"] == "overload"
        assert row["policy"] == "fair"
        assert row["oracle_ok"] is True
        assert row["offered"] == row["admitted"] + row["shed"]


def test_non_capable_engine_fails_with_the_capable_set(capsys):
    code = main(["run", "overload", "--quick", "--set", "system=flink"])
    assert code == 2
    err = capsys.readouterr().err
    assert "OVERLOAD FAILED" in err
    assert "overload" in err


def test_typo_policy_fails_with_a_suggestion(capsys):
    code = main(["run", "overload", "--quick", "--set", "policy=fare"])
    assert code == 2
    err = capsys.readouterr().err
    assert "OVERLOAD FAILED" in err
    assert "fair" in err


def test_unknown_gray_fault_fails_before_any_run(capsys):
    code = main(["run", "overload", "--quick", "--set", "fault=slow-nod"])
    assert code == 2
    err = capsys.readouterr().err
    assert "OVERLOAD FAILED" in err
    assert "unknown gray fault 'slow-nod'" in err
