"""The acceptance suites as grids: axes, knobs and one cell per protocol."""

import inspect

import pytest

from repro.grid import GRIDS, expand_grid, quick_overrides, run_grid
from repro.grid.suites import PROTOCOLS, ReportSequence

SUITE_AXES = {
    "chaos": ("fault", "seed"),
    "elastic": ("seed",),
    "overload": ("seed",),
    "sanitize": ("seed",),
}


@pytest.mark.parametrize("suite", sorted(SUITE_AXES))
def test_suite_grid_axes_and_knobs_are_protocol_keywords(suite):
    grid = GRIDS[suite]
    assert grid.axis_names() == SUITE_AXES[suite]
    params = inspect.signature(PROTOCOLS[suite]).parameters
    for name in (*grid.axis_names(), *grid.fixed):
        assert name in params, (suite, name)
    # One source per default: the protocol's, unless --quick resets it.
    for name, values in grid.axes:
        assert values == (params[name].default,), (suite, name)
    for name, value in grid.fixed.items():
        if name not in grid.quick:
            assert value == params[name].default, (suite, name)
    for name, value in grid.quick.items():
        assert value == params[name].default, (suite, name)


def test_quick_sizes_are_the_former_quick_flags():
    assert quick_overrides(GRIDS["elastic"]) == ({}, {"records_per_thread": 2500})
    assert quick_overrides(GRIDS["overload"]) == ({}, {"records_per_thread": 1000})
    assert GRIDS["elastic"].fixed["records_per_thread"] == 20_000
    assert GRIDS["overload"].fixed["records_per_thread"] == 4000


def test_each_cell_is_one_whole_protocol_run():
    run = expand_grid(
        GRIDS["chaos"], {"fault": ("leader-crash", "nic-flap"), "seed": (7, 8)},
        {"records_per_thread": 400},
    )
    assert [kind for kind, _params in run.cells] == ["suite"] * 4
    _kind, params = run.cells[1]
    assert params["suite"] == "chaos"
    assert params["kwargs"]["fault"] == "leader-crash"
    assert params["kwargs"]["seed"] == 8
    assert params["kwargs"]["records_per_thread"] == 400


def test_several_cells_concatenate_in_cell_order():
    faults = ("nic-flap", "drop-chunk")
    report = run_grid(
        GRIDS["chaos"], {"fault": faults},
        {"records_per_thread": 300, "verify_determinism": False,
         "strategy": "epoch-buddy"},
    )
    assert isinstance(report, ReportSequence)
    assert [r.name for r in report.reports] == [
        f"chaos: {fault} (seed 7)" for fault in faults
    ]
    assert [row["fault"] for row in report.rows] == list(faults)
    assert report.render() == "\n\n".join(r.render() for r in report.reports)
