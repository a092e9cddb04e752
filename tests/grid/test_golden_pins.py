"""Figure grids render byte-identical to the committed goldens.

The goldens under ``tests/harness/golden`` were rendered from the
pre-grid hand-rolled experiment loops; the grids must reproduce them
byte for byte, serially *and* over a process pool.
"""

import pathlib

import pytest

from repro.grid import PoolRunner, make_pool, resolve_grid, run_grid

GOLDEN = pathlib.Path(__file__).parent.parent / "harness" / "golden"

#: (grid, axis overrides, fixed overrides, golden file) at pinned sizes.
PINS = [
    (
        "fig6a-c",
        {"nodes": (2,)},
        {"threads": 2, "records_per_thread": 600, "batch_records": 150},
        "fig6a_smoke.txt",
    ),
    (
        "fig8ab",
        {"buffer": (4096, 65536)},
        {"threads": 2, "records_per_thread": 8000},
        "fig8a_smoke.txt",
    ),
]


@pytest.mark.parametrize("name,axes,fixed,golden", PINS)
def test_grid_render_matches_committed_golden(name, axes, fixed, golden):
    report = run_grid(resolve_grid(name), axis_overrides=axes,
                      fixed_overrides=fixed)
    assert report.render() + "\n" == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("name,axes,fixed,golden", PINS)
def test_grid_pool_render_matches_committed_golden(name, axes, fixed, golden):
    with make_pool(2) as pool:
        report = run_grid(resolve_grid(name), axis_overrides=axes,
                          fixed_overrides=fixed,
                          runner=PoolRunner(pool, 2))
    assert report.render() + "\n" == (GOLDEN / golden).read_text()
