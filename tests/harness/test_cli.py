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
        ["run", "chaos", "--axis", "fault=leader-crash", "--axis", "seed=7",
         "--set", "records_per_thread=600", "--out", str(tmp_path)]
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
    assert main(["run", "chaos", "--axis", "fault=leader-crsh"]) == 2
    err = capsys.readouterr().err
    assert "unknown fault preset" in err
    assert "did you mean 'leader-crash'?" in err


def test_chaos_unknown_preset_lists_known(capsys):
    assert main(["run", "chaos", "--axis", "fault=xyzzy"]) == 2
    err = capsys.readouterr().err
    assert "known:" in err
    assert "net-partition" in err and "cascade" in err


def test_chaos_cascade_preset_reports_mttr_columns(tmp_path, capsys):
    code = main(
        ["run", "chaos", "--axis", "fault=cascade", "--axis", "seed=7",
         "--set", "records_per_thread=600", "--out", str(tmp_path)]
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
    grid = GRIDS["chaos"]
    axes = dict(grid.axes)
    assert axes["fault"] == ("leader-crash",)
    assert axes["seed"] == (7,)
    assert grid.fixed["nodes"] == 3
    assert grid.fixed["system"] == "slash"
    assert grid.fixed["verify_determinism"] is True


def test_chaos_unknown_system_suggests_closest(capsys):
    assert main(["run", "chaos", "--set", "system=slsh"]) == 2
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "unknown system 'slsh'" in err
    assert "did you mean 'slash'?" in err


def test_chaos_system_without_fault_plane_fails_fast(capsys):
    assert main(["run", "chaos", "--set", "system=lightsaber"]) == 2
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "lacks required capability" in err
    assert "fault_injectable" in err


def test_chaos_unsupported_kind_names_supported_ones(capsys):
    """Flink has a fault plane but no crash recovery: leader-crash is a
    capability error naming the kinds it *can* absorb."""
    assert main(["run", "chaos", "--set", "system=flink",
                 "--axis", "fault=leader-crash",
                 "--set", "records_per_thread=400"]) == 2
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "node-crash" in err
    assert "drop-chunk" in err


def test_chaos_crash_on_join_query_is_a_malformed_request(capsys):
    """Crash recovery cannot re-fire join windows: a capability error
    (exit 2), not a failed zero-lost-results check (exit 1)."""
    assert main(["run", "chaos", "--set", "workload_name=nb8",
                 "--set", "records_per_thread=400"]) == 2
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "non-overlapping windows" in err


def test_chaos_strategy_parser_default():
    assert GRIDS["chaos"].fixed["strategy"] == "both"


def test_chaos_unknown_strategy_suggests_closest(capsys):
    assert main(["run", "chaos", "--set", "strategy=asyn-snapshot"]) == 2
    err = capsys.readouterr().err
    assert "unknown recovery strategy" in err
    assert "did you mean 'async-snapshot'?" in err


def test_chaos_help_lists_strategies(capsys):
    """An unknown strategy name lists every strategy the suite takes."""
    assert main(["run", "chaos", "--set", "strategy=help"]) == 2
    err = capsys.readouterr().err
    assert "epoch-buddy" in err
    assert "async-snapshot" in err


def test_chaos_uppar_crash_recovers_via_async_snapshot(tmp_path, capsys):
    """The headline: UpPar survives a leader crash with zero lost results
    through aligned snapshots + global restart."""
    code = main(
        ["run", "chaos", "--set", "system=uppar",
         "--axis", "fault=leader-crash", "--set", "strategy=async-snapshot",
         "--axis", "seed=7", "--set", "records_per_thread=400",
         "--out", str(tmp_path)]
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
        ["run", "chaos", "--axis", "fault=leader-crash", "--axis", "seed=7",
         "--set", "records_per_thread=400",
         "--set", "verify_determinism=false", "--out", str(tmp_path)]
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
        ["run", "chaos", "--set", "system=uppar", "--axis", "fault=nic-flap",
         "--axis", "seed=7", "--set", "nodes=2",
         "--set", "records_per_thread=600", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "zero-lost-results" in out and "FAIL" not in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["system"] == "uppar"
    assert rows[0]["zero_lost"] is True
    assert rows[0]["deterministic"] is True


def test_help_lists_only_list_and_run(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "{list,run,grid}" in out
    for removed in ("chaos", "elastic", "overload", "sanitize"):
        assert removed not in out


def test_run_list_shows_the_acceptance_suites(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for suite in ("chaos", "elastic", "overload", "sanitize"):
        assert f"\n{suite} " in out
