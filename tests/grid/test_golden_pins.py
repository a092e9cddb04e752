"""Grids render byte-identical to the committed goldens.

The goldens under ``tests/harness/golden`` were rendered from the
pre-grid hand-rolled experiment loops and the suites' former
subcommands; the grids must reproduce them byte for byte, serially
*and* over a process pool.  Each acceptance suite must also fail (exit
1) when its oracle reports a single mismatch.
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


# -- acceptance suites ---------------------------------------------------------

#: The TINY sanitizer scenario of tests/sanitizer/test_cli.py, as JSON.
TINY_REPLAY = (
    '{"batch": 32, "credits": 4, "epoch_bytes": 32768, "fault": null, '
    '"fault_seed": 0, "index": -1, "keyspace": 16, "nodes": 2, '
    '"overload": null, "records": 80, "seed": -1, "threads": 2, '
    '"workload": "ysb", "workload_seed": 5}'
)

#: (suite, CLI arguments, golden stem).  The goldens were written by the
#: suites' former subcommands (``chaos --fault leader-crash --seed 7
#: --records 600``, ``elastic --quick --records 1200 --strategy both``,
#: ``overload --quick``, ``sanitize --replay <TINY>``) before the suites
#: became grids; ``run <suite>`` must reproduce their ``--out`` files.
SUITE_PINS = [
    (
        "chaos",
        ["--axis", "fault=leader-crash", "--axis", "seed=7",
         "--set", "records_per_thread=600"],
        "chaos_leader_crash",
    ),
    (
        "elastic",
        ["--quick", "--set", "records_per_thread=1200",
         "--set", "strategy=both"],
        "elastic_quick",
    ),
    ("overload", ["--quick"], "overload_quick"),
    ("sanitize", ["--set", f"replay={TINY_REPLAY}"], "sanitize_tiny"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("suite,args,golden", SUITE_PINS)
def test_suite_out_files_match_committed_golden(
    suite, args, golden, jobs, tmp_path, capsys
):
    from repro.harness.cli import main

    assert main(["run", suite, *args, "-j", jobs, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for suffix in (".txt", ".json"):
        written = (tmp_path / f"{suite}{suffix}").read_text()
        assert written == (GOLDEN / f"{golden}{suffix}").read_text(), suffix


def _seed_one_mismatch(monkeypatch):
    """Make every oracle diff report one mismatched key."""
    import repro.grid.suites as suites
    import repro.runtime.oracle as oracle

    real = oracle.diff_aggregates

    def one_mismatch(expected, actual):
        missing, extra, mismatched = real(expected, actual)
        return missing, extra, mismatched + [("seeded", "mismatch")]

    monkeypatch.setattr(oracle, "diff_aggregates", one_mismatch)
    monkeypatch.setattr(suites, "diff_aggregates", one_mismatch)


#: Small sizes for the seeded-failure runs; the failure is the point.
SEEDED = {
    "chaos": ["--set", "records_per_thread=400",
              "--set", "verify_determinism=false"],
    "elastic": ["--quick", "--set", "records_per_thread=600",
                "--set", "strategy=fluid"],
    "overload": ["--quick", "--set", "policy=fair", "--set", "fault=none"],
    "sanitize": ["--set", f"replay={TINY_REPLAY}",
                 "--set", "shrink_failures=false"],
}


@pytest.mark.parametrize("suite", sorted(SEEDED))
def test_seeded_oracle_mismatch_fails_the_suite(suite, monkeypatch, capsys):
    from repro.harness.cli import main

    _seed_one_mismatch(monkeypatch)
    assert main(["run", suite, *SEEDED[suite]]) == 1
    err = capsys.readouterr().err
    assert f"{suite.upper()} FAILED" in err
    assert "1 mismatched" in err
