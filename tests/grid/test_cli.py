"""The ``python -m repro run`` subcommand and its ``grid`` alias."""

import json
import re

from repro.grid import grid_names
from repro.harness.cli import main


def test_grid_list_names_every_registered_grid(capsys):
    assert main(["grid", "--list"]) == 0
    out = capsys.readouterr().out
    for name in grid_names():
        assert name in out
    assert "traffic-slo" in out


def test_grid_dry_run_prints_cell_count_without_running(capsys):
    assert main(["grid", "fig8ab", "--dry-run"]) == 0
    out = capsys.readouterr().out
    # 8 buffer sizes x 2 transfer-capable engines.
    assert "16 cells" in out
    assert "axis buffer" in out and "axis system" in out


def test_grid_dry_run_resolves_panel_alias(capsys):
    assert main(["grid", "fig6b", "--dry-run"]) == 0
    assert "fig6a-c" in capsys.readouterr().out


def test_grid_axis_override_shrinks_expansion(capsys):
    assert main(["grid", "fig8ab", "--dry-run",
                 "--axis", "buffer=4096", "--axis", "system=slash"]) == 0
    assert "1 cells" in capsys.readouterr().out


def test_grid_unknown_name_exits_2_with_suggestion(capsys):
    assert main(["grid", "traffik-slo"]) == 2
    err = capsys.readouterr().err
    assert "GRID FAILED" in err
    assert "did you mean 'traffic-slo'?" in err


def test_grid_unknown_axis_exits_2_with_suggestion(capsys):
    assert main(["grid", "fig8ab", "--axis", "bufer=4096"]) == 2
    err = capsys.readouterr().err
    assert "unknown axis" in err
    assert "did you mean 'buffer'?" in err


def test_grid_unknown_knob_exits_2_with_suggestion(capsys):
    assert main(["grid", "traffic-slo", "--set", "sed=3"]) == 2
    err = capsys.readouterr().err
    assert "unknown fixed knob" in err
    assert "did you mean 'seed'?" in err


def test_grid_without_name_falls_back_to_listing(capsys):
    assert main(["grid"]) == 0
    assert "traffic-slo" in capsys.readouterr().out


def test_grid_runs_tiny_sweep_and_writes_outputs(tmp_path, capsys):
    code = main([
        "grid", "fig8ab", "--axis", "buffer=4096,65536",
        "--set", "records_per_thread=8000", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig8a/b" in out
    assert (tmp_path / "fig8ab.txt").exists()
    rows = json.loads((tmp_path / "fig8ab.json").read_text())
    # Buffer is the outermost axis; both transfer engines ride inside.
    assert [row["buffer_bytes"] for row in rows] == [4096, 4096, 65536, 65536]


def test_grid_traffic_slo_single_cell_reports_slo_and_fairness(
    tmp_path, capsys
):
    code = main([
        "grid", "traffic-slo", "--axis", "zipf=0.6",
        "--axis", "policy=fair", "--set", "records_per_thread=600",
        "--set", "batch_records=75", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "window lag" in out
    assert "per-tenant fairness" in out
    rows = json.loads((tmp_path / "traffic-slo.json").read_text())
    assert rows[0]["policy"] == "fair"
    assert rows[0]["slo_met"] in (True, False)
    assert len(rows[0]["tenants"]) == 4


def _without_wall_time(text: str) -> str:
    return re.sub(r"— [0-9.]+s wall\]", "— Xs wall]", text)


def test_run_and_grid_are_one_command(tmp_path, capsys):
    outputs = []
    for command in ("run", "grid"):
        out = tmp_path / command
        assert main([command, "fig8ab", "--quick", "--out", str(out)]) == 0
        outputs.append(_without_wall_time(capsys.readouterr().out))
        assert (out / "fig8ab.txt").exists()
    assert outputs[0] == outputs[1]
    assert (tmp_path / "run" / "fig8ab.txt").read_bytes() == (
        tmp_path / "grid" / "fig8ab.txt"
    ).read_bytes()


def test_run_all_quick_dry_run_expands_every_registered_grid(capsys):
    assert main(["run", "all", "--quick", "--dry-run"]) == 0
    out = capsys.readouterr().out
    expanded = re.findall(r"^grid (\S+): (\d+) cells$", out, re.MULTILINE)
    assert [name for name, _cells in expanded] == list(grid_names())
    cells = dict(expanded)
    # The quick data shrinks the sweep: fig6a-c runs 3 workloads x
    # 2 node counts x 3 engines, fig7 3 workloads x (L, 2, 4).
    assert cells["fig6a-c"] == "18"
    assert cells["fig7"] == "9"


def test_quick_sizes_yield_to_explicit_overrides(capsys):
    assert main(["run", "fig7", "--quick", "--dry-run",
                 "--axis", "nodes=L,2"]) == 0
    assert "grid fig7: 6 cells" in capsys.readouterr().out
