"""The wall-clock bench gate fails on a changed digest, not only on time."""

import copy
import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_wallclock", REPO_ROOT / "benchmarks" / "bench_wallclock.py"
)
bench_wallclock = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_wallclock)

COMMITTED = json.loads((REPO_ROOT / "BENCH_wallclock.json").read_text())


@pytest.fixture(scope="module")
def current():
    """A fresh quick run of two fast grids (no kernel or migration)."""
    return {
        "experiments": {
            name: bench_wallclock.bench_experiment(name, quick=True, jobs=1)
            for name in ("abl-signal", "table1")
        }
    }


def _baseline(tmp_path, result: dict) -> pathlib.Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(result))
    return path


def _gate(current, baseline) -> int:
    # A huge threshold isolates the digest check from wall-clock noise.
    return bench_wallclock.check_against(current, baseline, threshold=1e9)


def test_quick_digests_match_the_committed_baseline(current, tmp_path):
    for name, entry in current["experiments"].items():
        assert entry["digest"] == COMMITTED["experiments"][name]["digest"]
    assert _gate(current, _baseline(tmp_path, COMMITTED)) == 0


def test_doctored_experiment_digest_fails_the_gate(current, tmp_path, capsys):
    doctored = copy.deepcopy(COMMITTED)
    doctored["experiments"]["table1"]["digest"] = "0" * 64
    assert _gate(current, _baseline(tmp_path, doctored)) == 1
    assert "table1.digest" in capsys.readouterr().out


def test_digest_is_compared_only_at_the_same_sizes(current, tmp_path):
    doctored = copy.deepcopy(COMMITTED)
    doctored["experiments"]["table1"]["digest"] = "0" * 64
    doctored["experiments"]["table1"]["quick"] = False
    assert _gate(current, _baseline(tmp_path, doctored)) == 0


def test_doctored_migration_digest_fails_the_gate(tmp_path, capsys):
    migration = dict(COMMITTED["migration"])
    run = {"experiments": {}, "migration": migration}
    assert _gate(run, _baseline(tmp_path, COMMITTED)) == 0
    doctored = copy.deepcopy(COMMITTED)
    doctored["migration"]["digest"] = "0" * 64
    assert _gate(run, _baseline(tmp_path, doctored)) == 1
    assert "migration.digest" in capsys.readouterr().out
