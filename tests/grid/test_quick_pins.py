"""Every registered grid at its ``--quick`` sizes: the sha256 of its
render is its ``BENCH_wallclock.json`` pin, and its quick paper claims
hold.  ``run`` checks the claims only at a grid's own sizes, fails on a
seeded wrong ordering, and prints the same verdicts serially and ``-j 2``.
"""

import hashlib
import json
import pathlib
import re

import pytest

from repro.grid import check_claims, grid_names, resolve_grid
from repro.harness.cli import main

PINS = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCH_wallclock.json")
    .read_text()
)["experiments"]


@pytest.mark.parametrize("name", grid_names())
def test_quick_render_matches_pin_and_claims_hold(name, quick_report):
    report = quick_report(name)
    digest = hashlib.sha256(report.render().encode()).hexdigest()
    assert digest == PINS[name]["digest"]
    verdicts = check_claims(resolve_grid(name), report.rows, quick=True)
    assert [str(claim) for claim, held in verdicts if held is False] == []


def _swap_slash_and_uppar(report):
    by_point = {(r["workload"], r["nodes"], r["system"]): r for r in report.rows}
    for (workload, nodes, system), slash in by_point.items():
        if system == "slash":
            uppar = by_point[workload, nodes, "uppar"]
            slash["throughput"], uppar["throughput"] = (
                uppar["throughput"], slash["throughput"],
            )
    return report


def test_seeded_wrong_ordering_fails_run_and_names_the_claim(
    monkeypatch, capsys
):
    grid = resolve_grid("fig6a-c")
    render = grid.report
    monkeypatch.setattr(
        grid, "report", lambda run: _swap_slash_and_uppar(render(run))
    )
    assert main(["run", "fig6a-c", "--quick"]) == 1
    captured = capsys.readouterr()
    assert (
        "FIG6A-C FAILED: claim Fig. 6a-c: Slash > UpPar > Flink at every scale"
        in captured.err
    )
    assert "| FAILED " in captured.out


def test_overridden_sizes_leave_claims_unchecked(capsys):
    assert main(["run", "fig8ab", "--quick",
                 "--set", "records_per_thread=300"]) == 0
    out = capsys.readouterr().out
    assert "claims not checked (sizes overridden)" in out
    assert "paper claims" not in out


def _without_wall_time(text: str) -> str:
    return re.sub(r"— [0-9.]+s wall\]", "— Xs wall]", text)


def test_verdict_table_is_byte_identical_serial_and_parallel(capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["run", "fig8ab", "--quick", "-j", jobs]) == 0
        outputs.append(_without_wall_time(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert "== paper claims at the --quick sizes ==" in outputs[0]
    assert "| full size only |" in outputs[0]
