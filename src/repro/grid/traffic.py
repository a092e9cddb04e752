"""The production-traffic SLO suite, as a plain grid.

``traffic-slo`` sweeps shedding policy × user skew over the sessionized
multi-tenant workload (:mod:`repro.workloads.traffic`) under a paced
flash-crowd ingest, on every overload-capable engine (the engine axis is
a capability-filtered :class:`~repro.grid.spec.EngineSet` — today that
resolves to Slash alone, and any engine that grows an overload plane
joins the sweep automatically).

There is no per-figure reporting code here: :func:`slo_report` is a
generic report model that works for *any* grid whose cells are overload
scenarios — it labels each row with the grid's own axis values, computes
the p50/p99/p999 **window-lag** quantiles from the run's trigger
timeline (via the shared :mod:`repro.metrics.slo` helpers), reads the
coordinator's record-delay percentiles and shed accounting, and renders
the per-tenant fairness table from the same
:func:`~repro.metrics.slo.fairness_shares` arithmetic the overload
suite uses.
"""

from __future__ import annotations

from repro.core.system import CAP_OVERLOAD, SHED_POLICIES
from repro.grid.cells import end_to_end_scenario_cell
from repro.grid.registry import register_grid
from repro.grid.spec import EngineSet, GridRun, SweepGrid
from repro.metrics.reporting import Report, TextTable
from repro.metrics.slo import fairness_shares, lag_quantiles, window_lags

#: Offered ingest rate (records/s of simulated time, per worker thread)
#: for the default suite size.  Calibrated to roughly 2x the sustainable
#: rate of the sessions workload on a 3x2 Slash cluster at 1500
#: records/thread (~4.6e7/s per thread unpaced), so the flash crowd
#: genuinely overloads admission; scale it along with
#: ``records_per_thread`` when resizing the grid.
DEFAULT_INGEST_RATE = 9.0e7


def _point_label(point: dict) -> list:
    return [str(point[name]) for name in point]


def slo_report(run: GridRun) -> Report:
    """Generic SLO report: axis labels × lag quantiles × fairness."""
    axis_names = list(run.grid.axis_names())
    slo_ms = run.fixed.get("slo_p99_ms")
    report = Report(run.grid.title)
    lag_table = TextTable(
        f"window lag + record delay per cell (SLO p99 {slo_ms:g} ms)"
        if slo_ms is not None else "window lag + record delay per cell",
        axis_names
        + ["lag p50", "lag p99", "lag p999", "delay p99", "shed %", "SLO"],
    )
    fairness = TextTable(
        "per-tenant fairness (traffic share vs shed share)",
        axis_names + ["tenant", "offered", "shed", "traffic share", "shed share"],
    )
    any_tenants = False
    for point, result in zip(run.points, run.results):
        overload = result.extra.get("overload", {})
        lags = lag_quantiles(window_lags(result))
        shed = overload.get("shed", 0)
        offered = overload.get("offered", 0)
        shed_pct = 100.0 * shed / offered if offered else 0.0
        delay_p99 = overload.get("delay_p99_ms", 0.0)
        verdict = "-"
        if slo_ms is not None:
            verdict = "MET" if delay_p99 <= slo_ms else "VIOLATED"
        lag_table.add_row(
            *_point_label(point),
            f"{lags['p50'] * 1e3:.4g} ms",
            f"{lags['p99'] * 1e3:.4g} ms",
            f"{lags['p999'] * 1e3:.4g} ms",
            f"{delay_p99:.4g} ms",
            f"{shed_pct:.1f}%",
            verdict,
        )
        report.rows.append({
            "figure": run.grid.name,
            **point,
            "window_lag_p50_s": lags["p50"],
            "window_lag_p99_s": lags["p99"],
            "window_lag_p999_s": lags["p999"],
            "delay_p50_ms": overload.get("delay_p50_ms"),
            "delay_p99_ms": overload.get("delay_p99_ms"),
            "delay_p999_ms": overload.get("delay_p999_ms"),
            "offered": offered,
            "admitted": overload.get("admitted"),
            "shed": shed,
            "slo_p99_ms": slo_ms,
            "slo_met": (delay_p99 <= slo_ms) if slo_ms is not None else None,
            "tenants": fairness_shares(
                overload.get("tenant_offered", ()),
                overload.get("tenant_shed", ()),
            ),
        })
        for share in fairness_shares(
            overload.get("tenant_offered", ()), overload.get("tenant_shed", ())
        ):
            any_tenants = True
            fairness.add_row(
                *_point_label(point),
                share["tenant"],
                share["offered"],
                share["shed"],
                f"{share['traffic_share'] * 100:.1f}%",
                f"{share['shed_share'] * 100:.1f}%",
            )
    report.tables.append(lag_table)
    if any_tenants:
        report.tables.append(fairness)
    report.notes.append(
        "lag quantiles are window-trigger lags (simulated s) over the whole "
        "run; delay p99 is the coordinator's record queueing-delay "
        "percentile the SLO verdict is judged on; a fair shedder keeps "
        "each tenant's shed share near its traffic share."
    )
    return report


def _traffic_cell(point: dict, fixed: dict):
    return end_to_end_scenario_cell(
        point["engine"], "sessions", fixed["nodes"], fixed["threads"],
        workload_overrides={
            "records_per_thread": fixed["records_per_thread"],
            "batch_records": fixed["batch_records"],
            "zipf_z": point["zipf"],
            "mean_session_records": fixed["mean_session_records"],
            "late_frac": fixed["late_frac"],
            "late_by_ms": fixed["late_by_ms"],
            "dup_frac": fixed["dup_frac"],
        },
        seed=fixed["seed"],
        slo_p99_ms=fixed["slo_p99_ms"],
        shed_policy=point["policy"],
        overload_overrides={
            "ingest_rate_records_per_s": fixed["ingest_rate_records_per_s"],
            "tenants": fixed["tenants"],
            "flash_at_frac": fixed["flash_at_frac"],
            "flash_magnitude": fixed["flash_magnitude"],
        },
    )


register_grid(SweepGrid(
    name="traffic-slo",
    title="traffic-slo (sessionized flash crowd)",
    description="production traffic: sessionized multi-tenant streams, "
                "SLO shedding sweep with window-lag percentiles",
    axes=(
        ("engine", EngineSet(capabilities=(CAP_OVERLOAD,))),
        ("zipf", (0.6, 1.4)),
        ("policy", tuple(SHED_POLICIES)),
    ),
    fixed={
        "nodes": 3,
        "threads": 2,
        "records_per_thread": 1500,
        "batch_records": 75,
        "mean_session_records": 8.0,
        "late_frac": 0.05,
        "late_by_ms": 2000,
        "dup_frac": 0.02,
        "seed": 11,
        "tenants": 4,
        # Half the no-shed delay p99 at this rate (the run_overload
        # calibration convention, pinned so the grid stays declarative):
        # the overload is real without shedding, meetable with it.
        "slo_p99_ms": 0.0045,
        "ingest_rate_records_per_s": DEFAULT_INGEST_RATE,
        "flash_at_frac": 0.5,
        "flash_magnitude": 3.0,
    },
    cell=_traffic_cell,
    report=slo_report,
))


register_grid(SweepGrid(
    name="traffic-storm",
    title="traffic-storm (late + duplicate arrivals)",
    description="production traffic: late/duplicate arrival storms over "
                "sessionized streams, unshedded window-lag profile",
    axes=(
        ("engine", EngineSet(capabilities=(CAP_OVERLOAD,))),
        ("late_frac", (0.0, 0.1)),
        ("dup_frac", (0.0, 0.05)),
    ),
    fixed={
        "nodes": 2,
        "threads": 2,
        "records_per_thread": 1500,
        "batch_records": 75,
        "mean_session_records": 8.0,
        "zipf": 0.8,
        "late_by_ms": 2000,
        "seed": 11,
        "tenants": 4,
        "slo_p99_ms": None,
    },
    cell=lambda point, fixed: end_to_end_scenario_cell(
        point["engine"], "sessions", fixed["nodes"], fixed["threads"],
        workload_overrides={
            "records_per_thread": fixed["records_per_thread"],
            "batch_records": fixed["batch_records"],
            "zipf_z": fixed["zipf"],
            "mean_session_records": fixed["mean_session_records"],
            "late_frac": point["late_frac"],
            "late_by_ms": fixed["late_by_ms"],
            "dup_frac": point["dup_frac"],
        },
        seed=fixed["seed"],
        overload_overrides={"tenants": fixed["tenants"]},
    ),
    report=slo_report,
))
