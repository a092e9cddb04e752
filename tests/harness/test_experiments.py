"""The runner helpers, and each figure's paper claims against a seeded bug.

``tests/grid/test_quick_pins.py`` checks that the grids' claims hold at
``--quick`` sizes; here each must also fail once a copy of the quick rows
is doctored (a winner zeroed, a breakdown's dominant category moved), so
no claim is vacuously true.
"""

import copy

import pytest

from repro.common.errors import ConfigError
from repro.grid import (
    check_claims, end_to_end_scenario_cell, resolve_grid, run_cell,
)
from repro.runtime import REGISTRY, make_workload
from repro.simnet.counters import CycleCategory

TINY = {"records_per_thread": 1200, "batch_records": 300}


def row(rows: list, **where) -> dict:
    """The one row matching every ``where`` field."""
    (match,) = [r for r in rows if all(r[k] == v for k, v in where.items())]
    return match


def assert_caught(quick_report, name: str, claim: str, seed_bug) -> None:
    """``claim`` holds on grid ``name``'s quick rows and fails once
    ``seed_bug`` has doctored a copy of them."""
    grid = resolve_grid(name)

    def failed(rows):
        return [c.text for c, held in check_claims(grid, rows, True) if held is False]

    rows = copy.deepcopy(quick_report(name).rows)
    assert claim not in failed(rows)
    seed_bug(rows)
    assert claim in failed(rows)


class TestRunner:
    def test_make_workload_known(self):
        assert make_workload("ysb", records_per_thread=10).records_per_thread == 10

    def test_make_workload_unknown(self):
        with pytest.raises(ConfigError):
            make_workload("tpch")

    def test_build_engine_all_systems(self):
        for system in ("slash", "uppar", "flink", "lightsaber"):
            assert REGISTRY.create(system, 2) is not None
        with pytest.raises(ConfigError):
            REGISTRY.create("spark", 2)

    def test_run_end_to_end_row(self):
        """One weak-scaling point is one scenario cell."""
        result = run_cell(
            end_to_end_scenario_cell("slash", "ysb", 2, 2, workload_overrides=TINY)
        )
        assert result.input_records == 2 * 2 * 1200
        assert result.throughput_records_per_s > 0


class TestFig6Shape:
    def test_aggregations_ordering_and_render(self, quick_report):
        assert_caught(
            quick_report, "fig6a-c", "Slash > UpPar > Flink at every scale",
            lambda rows: row(rows, workload="cm", nodes=4, system="slash")
            .update(throughput=0.0),
        )
        assert "slash/uppar" in quick_report("fig6a-c").render()

    def test_joins_ordering(self, quick_report):
        assert_caught(
            quick_report, "fig6d-e",
            "Slash wins joins but by less than aggregations: 8x (NB8)",
            lambda rows: row(rows, workload="nb11", nodes=2, system="flink")
            .update(throughput=float("inf")),
        )


class TestFig7Shape:
    def test_slash_beats_lightsaber_with_nodes(self, quick_report):
        assert_caught(
            quick_report, "fig7",
            "Slash beats LightSaber from 2 nodes on, up to 11.6x (YSB/CM) at 16",
            lambda rows: row(rows, workload="nb7", nodes=4)
            .update(speedup_vs_lightsaber=1.0),
        )


class TestFig8Shapes:
    def test_buffer_sweep_throughput_grows_then_saturates(self, quick_report):
        assert_caught(
            quick_report, "fig8ab",
            "Throughput rises with buffer size to a 32–64 KiB sweet spot "
            "near the 11.8 GB/s line",
            lambda rows: row(rows, system="slash", buffer_bytes=32768)
            .update(throughput_bytes_per_s=0.0),
        )
        assert_caught(
            quick_report, "fig8ab",
            "Latency < 100 µs below 128 KiB, ~1 ms at 1 MiB; UpPar ~10 % "
            "above Slash",
            lambda rows: row(rows, system="slash", buffer_bytes=65536)
            .update(mean_latency_s=0.0),
        )

    def test_parallelism_slash_saturates_before_uppar(self, quick_report):
        assert_caught(
            quick_report, "fig8c",
            "UpPar needs 10 threads to approach the link (91 %)",
            lambda rows: row(rows, system="slash", threads=2)
            .update(throughput_bytes_per_s=0.0),
        )

    def test_skew_directions(self, quick_report):
        assert_caught(
            quick_report, "fig8d", "Slash *gains* on YSB under skew",
            lambda rows: row(rows, workload="ysb", system="slash", z=2.0)
            .update(throughput_records_per_s=0.0),
        )
        assert_caught(
            quick_report, "fig8d", "Slash constant on RO",
            lambda rows: row(rows, workload="ro", system="slash", z=0.2)
            .update(throughput_records_per_s=1.0),
        )


class TestBreakdownShapes:
    def test_fig9_verdicts(self, quick_report):
        assert_caught(
            quick_report, "fig9",
            "UpPar receiver core-bound (pause-spinning on the slow sender)",
            lambda rows: row(rows, system="uppar", threads=2)["receiver"]
            .update({CycleCategory.MEMORY: 1.0}),
        )

    def test_fig10_slash_memory_bound(self, quick_report):
        assert_caught(
            quick_report, "fig10", "slash (whole): memory-bound, ~20 % retiring",
            lambda rows: row(rows, system="slash")["busy"]["slash (whole)"]
            .update({CycleCategory.FRONTEND: 1.0}),
        )

    def test_table1_magnitudes(self, quick_report):
        assert_caught(
            quick_report, "table1", "Busy cyc/rec — paper 274 / 276 / 53",
            lambda rows: row(rows, who="uppar sender").update(cyc_per_rec=0.0),
        )
        assert_caught(
            quick_report, "table1",
            "IPC — paper 0.6 / 0.4 / 0.9, all below the 4-wide peak",
            lambda rows: row(rows, who="slash").update(ipc=4.5),
        )


class TestAblations:
    def test_credits_eight_is_sweet_spot(self, quick_report):
        assert_caught(
            quick_report, "abl-credits",
            "c=8 credits best; deep rings buy nothing / regress ~10 %",
            lambda rows: row(rows, credits=1)
            .update(throughput_bytes_per_s=float("inf")),
        )

    def test_epoch_sweep_runs(self, quick_report):
        assert_caught(
            quick_report, "abl-epoch", "64 MB-proportional epoch default sensible",
            lambda rows: row(rows, epoch_bytes=1024 * 1024).update(throughput=0.0),
        )

    def test_execution_strategy_compiled_faster(self, quick_report):
        assert_caught(
            quick_report, "abl-exec",
            "Execution-strategy agnosticism: compiled and interpreted both run",
            lambda rows: row(rows, strategy="interpreted")
            .update(throughput=float("inf")),
        )

    def test_selective_signaling_wins(self, quick_report):
        assert_caught(
            quick_report, "abl-signal",
            "Selective signaling saves per-message CPU (C2)",
            lambda rows: row(rows, signaled=True)
            .update(throughput_bytes_per_s=float("inf")),
        )
