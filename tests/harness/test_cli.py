"""Tests for the experiment CLI."""

import json

import pytest

from repro.grid import GRIDS
from repro.harness.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in GRIDS:
        assert name in out


def test_unknown_experiment_fails(capsys):
    assert main(["run", "fig99"]) == 2
    assert "RUN FAILED: unknown grid 'fig99'" in capsys.readouterr().err


def test_run_quick_experiment_writes_outputs(tmp_path, capsys):
    code = main(
        ["run", "abl-epoch", "--quick", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "epoch" in out
    assert (tmp_path / "abl-epoch.txt").exists()
    rows = json.loads((tmp_path / "abl-epoch.json").read_text())
    assert rows and all("epoch_bytes" in row for row in rows)


def test_run_fig7_quick(capsys):
    assert main(
        ["run", "fig7", "--quick", "--set", "records_per_thread=800"]
    ) == 0
    out = capsys.readouterr().out
    assert "LightSaber" in out
    assert "slash x2" in out


def test_parser_defaults():
    args = build_parser().parse_args(["run", "fig6a-c"])
    assert args.name == "fig6a-c"
    assert args.axis == [] and args.set_knobs == []
    assert args.jobs == 1
    assert not args.quick


def test_every_registered_experiment_has_description():
    for name, grid in GRIDS.items():
        assert grid.description, name
        assert callable(grid.cell) and callable(grid.report), name


def test_chaos_command_writes_outputs(tmp_path, capsys):
    code = main(
        ["chaos", "--fault", "leader-crash", "--seed", "7",
         "--records", "600", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recovery outcome" in out
    assert "zero-lost-results" in out and "FAIL" not in out
    assert (tmp_path / "chaos.txt").exists()
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["zero_lost"] is True
    assert rows[0]["deterministic"] is True


def test_chaos_unknown_preset_suggests_closest(capsys):
    assert main(["chaos", "--fault", "leader-crsh"]) == 1
    err = capsys.readouterr().err
    assert "unknown fault preset" in err
    assert "did you mean 'leader-crash'?" in err


def test_chaos_unknown_preset_lists_known(capsys):
    assert main(["chaos", "--fault", "xyzzy"]) == 1
    err = capsys.readouterr().err
    assert "known:" in err
    assert "net-partition" in err and "cascade" in err


def test_chaos_cascade_preset_reports_mttr_columns(tmp_path, capsys):
    code = main(
        ["chaos", "--fault", "cascade", "--seed", "7",
         "--records", "600", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "zero-lost-results" in out and "FAIL" not in out
    for column in ("detection", "promotion", "mttr"):
        assert column in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["zero_lost"] is True
    assert rows[0]["deterministic"] is True


def test_chaos_parser_defaults():
    args = build_parser().parse_args(["chaos"])
    assert args.fault == "leader-crash"
    assert args.seed == 7
    assert args.nodes == 3
    assert args.system == "slash"
    assert not args.no_determinism_check


def test_chaos_unknown_system_suggests_closest(capsys):
    assert main(["chaos", "--system", "slsh"]) == 1
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "unknown system 'slsh'" in err
    assert "did you mean 'slash'?" in err


def test_chaos_system_without_fault_plane_fails_fast(capsys):
    assert main(["chaos", "--system", "lightsaber"]) == 1
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "lacks required capability" in err
    assert "fault_injectable" in err


def test_chaos_unsupported_kind_names_supported_ones(capsys):
    """Flink has a fault plane but no crash recovery: leader-crash is a
    capability error naming the kinds it *can* absorb."""
    assert main(["chaos", "--system", "flink", "--fault", "leader-crash",
                 "--records", "400"]) == 1
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "node-crash" in err
    assert "drop-chunk" in err


def test_chaos_strategy_parser_default():
    args = build_parser().parse_args(["chaos"])
    assert args.strategy == "both"


def test_chaos_unknown_strategy_suggests_closest(capsys):
    assert main(["chaos", "--strategy", "asyn-snapshot"]) == 1
    err = capsys.readouterr().err
    assert "unknown recovery strategy" in err
    assert "did you mean 'async-snapshot'?" in err


def test_chaos_help_lists_strategies(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--help"])
    out = capsys.readouterr().out
    assert "epoch-buddy" in out
    assert "async-snapshot" in out


def test_chaos_uppar_crash_recovers_via_async_snapshot(tmp_path, capsys):
    """The headline: UpPar survives a leader crash with zero lost results
    through aligned snapshots + global restart."""
    code = main(
        ["chaos", "--system", "uppar", "--fault", "leader-crash",
         "--strategy", "async-snapshot", "--seed", "7",
         "--records", "400", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "async-snapshot" in out
    assert "zero-lost-results" in out and "FAIL" not in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["recovery_strategy"] == "async-snapshot"
    assert rows[0]["zero_lost"] is True
    assert rows[0]["recovered_records"] > 0


def test_chaos_both_strategies_render_comparison(tmp_path, capsys):
    code = main(
        ["chaos", "--fault", "leader-crash", "--seed", "7",
         "--records", "400", "--no-determinism-check",
         "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recovery strategy comparison" in out
    for column in ("snapshot overhead", "recovered records"):
        assert column in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    strategies = [row["recovery_strategy"] for row in rows]
    assert strategies == ["epoch-buddy", "async-snapshot"]
    assert all(row["zero_lost"] for row in rows)


def test_chaos_on_uppar_through_generic_hooks(tmp_path, capsys):
    code = main(
        ["chaos", "--system", "uppar", "--fault", "nic-flap", "--seed", "7",
         "--nodes", "2", "--records", "600", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "zero-lost-results" in out and "FAIL" not in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["system"] == "uppar"
    assert rows[0]["zero_lost"] is True
    assert rows[0]["deterministic"] is True
