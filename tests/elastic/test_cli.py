"""Tests for the ``elastic`` suite grid through the CLI."""

import json

from repro.harness.cli import main


def test_quick_run_prints_the_latency_table(capsys):
    code = main([
        "run", "elastic", "--quick", "--set", "records_per_thread=1200",
        "--set", "strategy=both",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "migration-window latency" in out
    assert "all-at-once" in out and "fluid" in out
    assert "PASS" in out and "FAIL" not in out


def test_out_dir_gets_text_and_json(tmp_path, capsys):
    code = main([
        "run", "elastic", "--quick", "--set", "records_per_thread=1200",
        "--set", "strategy=all-at-once", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "elastic.txt").exists()
    rows = json.loads((tmp_path / "elastic.json").read_text())
    assert rows
    for row in rows:
        assert row["oracle_ok"] is True
        assert row["ownership_checks"] > 0
        assert row["strategy"] == "all-at-once"


def test_unknown_strategy_suggests_a_fix(capsys):
    assert main(["run", "elastic", "--set", "strategy=fluda"]) == 2
    err = capsys.readouterr().err
    assert "ELASTIC FAILED" in err
    assert "fluid" in err


def test_non_elastic_engine_fails_with_the_capable_set(capsys):
    code = main([
        "run", "elastic", "--set", "system=flink", "--quick",
        "--set", "records_per_thread=600",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "ELASTIC FAILED" in err
    assert "slash" in err and "uppar" in err


def test_rescale_past_horizon_fails_cleanly(capsys):
    code = main([
        "run", "elastic", "--quick", "--set", "records_per_thread=600",
        "--set", "strategy=fluid", "--set", "rescale_frac=0.999999",
    ])
    # Either the run squeaks in before the horizon (exit 0) or the
    # coordinator reports the miss as a clean config failure (exit 2) —
    # never a traceback.
    captured = capsys.readouterr()
    if code == 2:
        assert "ELASTIC FAILED" in captured.err
    else:
        assert code == 0
        assert "migration-window latency" in captured.out


def test_chaos_cli_accepts_the_elastic_flag(capsys):
    code = main([
        "run", "chaos", "--axis", "fault=leader-crash",
        "--set", "elastic=fluid", "--set", "records_per_thread=800",
        "--set", "verify_determinism=false", "--set", "strategy=epoch-buddy",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fluid rescale" in out
