"""Tests of the benchmark itself: output check, failure counting, determinism.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import sample  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Input size as a share of the benchmark's; big enough for every plane to act.
TINY = 0.05
SEED = 3


def test_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench.WORKLOADS == tuple(WORKLOADS) == tuple(w["name"] for w in spec["workloads"])
    samples = [{"ok": True, "records": 10, "sim_wall_s": 1.0, "setup_s": 0.1,
                "peak_rss_mb": 50.0, "sim_records_per_s": 1e6}]
    reported = {name: m["unit"] for name, m in bench.end_to_end(samples).items()}
    assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    reported = {name: m["unit"] for name, m in bench.per_layer(samples, {}).items()}
    assert reported == {m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_passes_the_output_check(workload):
    out = sample.run_sample(workload, SEED, scale=TINY)
    assert out["error"] is None
    assert out["ok"], out["problems"]
    assert out["records"] > 0 and out["sim_wall_s"] > 0 and out["setup_s"] > 0


def _drop_one_record(flows: dict) -> dict:
    key = sorted(flows)[-1]
    (stream, batch), *rest = flows[key]
    keep = np.ones(len(batch), dtype=bool)
    keep[-1] = False
    return {**flows, key: [(stream, batch.select(keep))] + rest}


# Aggregations only: every record counts, while a join record that matches
# nothing leaves the join output (rightly) unchanged.
@pytest.mark.parametrize("workload", ["zipf-agg", "planes-armed"])
def test_a_dropped_record_counts_as_a_failed_run(workload):
    good = sample.run_sample(workload, SEED, scale=TINY)
    bad = sample.run_sample(workload, SEED, scale=TINY, tamper=_drop_one_record)
    assert good["ok"] and not bad["ok"]
    samples = [good, bad]
    result = bench.result(samples, bench.end_to_end(samples))
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert result["metrics"]["passed_share"]["value"] == 0.5


def _traced(workload: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "--scale", str(TINY)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_gives_identical_digests_and_counts(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["ok"] and second["ok"]
    assert first["digest"] == second["digest"]
    assert first["counts"] == second["counts"]
    calls = [{layer: row["calls_in"] for layer, row in out["layers"].items()}
             for out in (first, second)]
    assert calls[0] == calls[1]
    # Every profiled second is charged to a measured layer.
    for out in (first, second):
        assert set(out["layers"]) <= set(sample.LAYERS)
        assert sum(row["self_s"] for row in out["layers"].values()) == pytest.approx(
            out["total_s"], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_default_seed_matches_the_pinned_digest(workload):
    out = sample.run_sample(workload, sample.DEFAULT_SEED)
    assert out["ok"], out["problems"] or out["error"]
    assert out["digest"] == sample.PINNED_DIGESTS[workload]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf-agg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
