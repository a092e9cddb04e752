"""Command-line interface to the experiment harness.

Usage (after ``python setup.py develop``)::

    python -m repro list
    python -m repro run fig6a --axis nodes=2,4 --set threads=4
    python -m repro run fig8d --quick --out results/
    python -m repro run all --quick -j 4
    python -m repro grid traffic-slo --axis zipf=0.8,1.6 --set seed=3
    python -m repro chaos --seed 7 --fault leader-crash
    python -m repro elastic --strategy both --action join
    python -m repro overload --rate-factor 2 --policy all

``run`` (alias ``grid``) runs one registered grid by name or panel alias,
or ``all`` of them, prints the rendered report, and optionally writes it
(plus a machine-readable JSON of the raw rows) into an output directory.
``--quick`` applies each grid's smoke sizes; ``--axis``/``--set`` win
over them.  ``chaos``, ``elastic``, ``overload`` and ``sanitize`` run the
acceptance suites and exit 1 with ``<NAME> FAILED`` when a check fails
(see ``docs/fault_tolerance.md``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Optional, Sequence

from repro.common.errors import ConfigError, FaultError, StateError
from repro.harness.suites import run_chaos, run_elastic, run_overload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Rethinking "
        "Stateful Stream Processing with RDMA' (SIGMOD 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "list", help="list every registered grid (same as 'run --list')"
    ).set_defaults(handler=lambda args: _list_grids())

    run = sub.add_parser(
        "run", aliases=["grid"],
        help="run a registered sweep grid by name or panel alias, or 'all' "
             "(see 'run --list')",
    )
    run.set_defaults(handler=_run)
    run.add_argument("name", nargs="?", default=None,
                     help="grid name or panel alias from 'run --list', "
                          "or 'all'")
    run.add_argument("--list", action="store_true", dest="list_grids",
                     help="list registered grids with their axes")
    run.add_argument("--axis", action="append", default=[],
                     metavar="NAME=V1,V2,...",
                     help="override one axis's swept values (repeatable); "
                          "engine axes keep their capability gate")
    run.add_argument("--set", action="append", default=[], dest="set_knobs",
                     metavar="NAME=VALUE",
                     help="override one fixed knob (repeatable)")
    run.add_argument("--quick", action="store_true",
                     help="the grid's small smoke-run sizes (--axis/--set "
                          "still win)")
    run.add_argument("--dry-run", action="store_true",
                     help="expand the grid and print its cells without "
                          "running any simulation")
    run.add_argument("-j", "--jobs", type=int, default=1,
                     help="fan grid cells (and, for 'all', whole grids) "
                          "over N worker processes (output stays "
                          "byte-identical to -j 1)")
    run.add_argument("--profile", action="store_true",
                     help="profile the run with cProfile and print the "
                          "hottest functions (forces -j 1)")
    run.add_argument("--out", type=pathlib.Path, default=None,
                     help="directory to write <name>.txt and <name>.json into")

    from repro.faults.plan import PRESETS

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection run: inject a fault preset, verify recovery",
    )
    chaos.set_defaults(handler=_run_chaos)
    chaos.add_argument("--fault", default="leader-crash", metavar="PRESET",
                       help="named fault preset to inject (one of: "
                            + ", ".join(PRESETS) + ")")
    chaos.add_argument("--system", default="slash",
                       help="fault-injectable engine to run under chaos "
                            "(registry name; default: slash)")
    from repro.core.system import RECOVERY_STRATEGIES

    chaos.add_argument("--strategy", default="both", metavar="STRATEGY",
                       help="recovery strategy for control-plane faults "
                            "(one of: " + ", ".join(RECOVERY_STRATEGIES)
                            + "; default: 'both' runs every strategy the "
                              "engine supports and compares them)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="seed deriving fault time and victim")
    chaos.add_argument("--nodes", type=int, default=3,
                       help="cluster size")
    chaos.add_argument("--threads", type=int, default=2,
                       help="worker threads per node")
    chaos.add_argument("--records", type=int, default=1500,
                       help="records per thread")
    chaos.add_argument("--workload", default="ysb",
                       help="workload to run under fault injection")
    chaos.add_argument("--no-determinism-check", action="store_true",
                       help="skip the second same-seed faulted run")
    from repro.core.system import MIGRATION_STRATEGIES

    chaos.add_argument("--elastic", default=None, metavar="STRATEGY",
                       choices=sorted(MIGRATION_STRATEGIES),
                       help="additionally perform a live join-rescale with "
                            "this migration strategy (one of: "
                            + ", ".join(sorted(MIGRATION_STRATEGIES))
                            + ") during every faulted run")
    chaos.add_argument("--out", type=pathlib.Path, default=None,
                       help="directory to write chaos.txt and chaos.json into")

    elastic = sub.add_parser(
        "elastic",
        help="live-rescale run: migrate partitions mid-run under both "
             "strategies, diff against the static baseline, report the "
             "migration-window latency spike",
    )
    elastic.set_defaults(handler=_run_elastic)
    elastic.add_argument("--system", default="slash",
                         help="elastic-capable engine (registry name; "
                              "default: slash)")
    elastic.add_argument("--strategy", default="both", metavar="STRATEGY",
                         help="migration strategy (one of: "
                              + ", ".join(sorted(MIGRATION_STRATEGIES))
                              + "; default: 'both' runs and compares them)")
    elastic.add_argument("--action", default="join",
                         choices=("join", "leave", "rebalance"),
                         help="rescale action (default: join)")
    elastic.add_argument("--nodes", type=int, default=2,
                         help="cluster size before the rescale")
    elastic.add_argument("--threads", type=int, default=4,
                         help="worker threads per node")
    elastic.add_argument("--records", type=int, default=20_000,
                         help="records per thread (state must dwarf the "
                              "fixed per-move latency floor)")
    elastic.add_argument("--workload", default="ysb",
                         help="workload to rescale under")
    elastic.add_argument("--seed", type=int, default=11,
                         help="workload generator seed")
    elastic.add_argument("--rescale-frac", type=float, default=0.35,
                         help="when to rescale, as a fraction of the "
                              "static run's horizon")
    elastic.add_argument("--ranges", type=int, default=None,
                         help="fluid key-range sub-moves (ElasticPlan "
                              "default when omitted)")
    elastic.add_argument("--spread", type=float, default=None,
                         help="fluid catch-up gap between sub-moves, as a "
                              "multiple of each round's stall")
    elastic.add_argument("--add-nodes", type=int, default=1,
                         help="spare nodes a join brings up")
    elastic.add_argument("--drain-node", type=int, default=None,
                         help="node a leave drains (default: last node)")
    elastic.add_argument("--quick", action="store_true",
                         help="small sizes for a fast smoke run")
    elastic.add_argument("--out", type=pathlib.Path, default=None,
                         help="directory to write elastic.txt and "
                              "elastic.json into")

    from repro.core.system import SHED_POLICIES

    overload = sub.add_parser(
        "overload",
        help="flash-crowd run: pace ingest past the sustainable rate, "
             "shed to the declared p99 SLO under every policy, verify "
             "exact shed accounting against the reference oracle, and "
             "measure straggler mitigation under a gray fault",
    )
    overload.set_defaults(handler=_run_overload)
    overload.add_argument("--system", default="slash",
                          help="overload-capable engine (registry name; "
                               "default: slash)")
    overload.add_argument("--workload", default="ysb",
                          help="workload to overload")
    overload.add_argument("--nodes", type=int, default=3,
                          help="cluster size (>= 3 gives the straggler "
                               "detector a median to drift from)")
    overload.add_argument("--threads", type=int, default=2,
                          help="worker threads per node")
    overload.add_argument("--records", type=int, default=4000,
                          help="records per thread")
    overload.add_argument("--seed", type=int, default=11,
                          help="workload generator + shedder seed")
    overload.add_argument("--slo-ms", type=float, default=None,
                          help="declared p99 SLO in simulated ms "
                               "(default: half the no-shed p99)")
    overload.add_argument("--rate-factor", type=float, default=2.0,
                          help="offered rate as a multiple of the "
                               "measured sustainable rate")
    overload.add_argument("--policy", default="all",
                          help="shedding policy (one of: "
                               + ", ".join(SHED_POLICIES)
                               + "; 'all' compares every policy, 'none' "
                                 "skips shedding runs)")
    overload.add_argument("--tenants", type=int, default=4,
                          help="tenants for the per-tenant fairness table")
    overload.add_argument("--zipf", type=float, default=0.0,
                          help="Zipf skew for the workload's keys "
                               "(hot-key flash crowds; 0 = uniform)")
    overload.add_argument("--fault", default="slow-node",
                          choices=("slow-node", "jitter", "none"),
                          help="gray fault for the straggler-mitigation "
                               "section ('none' skips it)")
    overload.add_argument("--quick", action="store_true",
                          help="small sizes for a fast smoke run")
    overload.add_argument("--out", type=pathlib.Path, default=None,
                          help="directory to write overload.txt and "
                               "overload.json into")

    sanitize = sub.add_parser(
        "sanitize",
        help="differential oracle harness: random scenarios with runtime "
             "invariant checkers on, compared against the sequential "
             "reference and the partitioned baseline",
    )
    sanitize.set_defaults(handler=_run_sanitize)
    sanitize.add_argument("--scenarios", type=int, default=25,
                          help="number of random scenarios to generate")
    sanitize.add_argument("--seed", type=int, default=1,
                          help="seed deriving every scenario")
    sanitize.add_argument("--replay", default=None,
                          help="re-run one exact scenario from its JSON "
                               "description (as printed by a failure's "
                               "repro command) instead of generating")
    sanitize.add_argument("--no-shrink", action="store_true",
                          help="skip minimizing failing scenarios")
    sanitize.add_argument("--out", type=pathlib.Path, default=None,
                          help="directory to write sanitize.txt and "
                               "sanitize.json into")
    return parser


def _emit(name: str, report, label: str, elapsed: float,
          out: Optional[pathlib.Path]) -> None:
    """Print a report with its wall-time footer; write ``--out`` files."""
    print(report.render())
    print(f"\n[{label} — {elapsed:.1f}s wall]")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(report.render() + "\n")
        (out / f"{name}.json").write_text(
            json.dumps(_jsonable(report.rows), indent=2) + "\n"
        )


def _jsonable(rows: list) -> list:
    def convert(value):
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        if isinstance(value, float) and value in (float("inf"), float("-inf")):
            return str(value)
        if isinstance(value, (int, float, str, bool)) or value is None:
            return value
        return str(value)

    return [convert(row) for row in rows]


# -- grids --------------------------------------------------------------------

def _list_grids() -> int:
    from repro.grid import GRIDS

    width = max(len(name) for name in GRIDS)
    for name, grid in GRIDS.items():
        axes = ", ".join(grid.axis_names())
        alias = f" (aliases: {', '.join(grid.aliases)})" if grid.aliases else ""
        print(f"{name:<{width}}  {grid.description} [axes: {axes}]{alias}")
    return 0


def _print_expansion(grid, axes: dict, fixed: dict) -> None:
    from repro.grid import expand_grid

    run = expand_grid(grid, axes, fixed)
    print(f"grid {grid.name}: {len(run.cells)} cells")
    for name in grid.axis_names():
        values = ", ".join(str(v) for v in run.axis(name))
        print(f"  axis {name}: {values}")
    for point, (kind, _params) in zip(run.points, run.cells):
        label = ", ".join(f"{k}={v}" for k, v in point.items())
        print(f"  [{kind}] {label}")


def _timed_grid(plan: tuple, runner=None) -> tuple:
    """Run one ``(grid, axes, fixed)`` plan; returns ``(report, elapsed_s)``."""
    from repro.grid import run_grid

    started = time.time()
    report = run_grid(*plan, runner=runner)
    return report, time.time() - started


def _emit_grid(grid, report, elapsed: float, out) -> None:
    _emit(grid.name, report, f"{grid.name}: {grid.description}", elapsed, out)


def _run(args) -> int:
    from repro.grid import (
        GRIDS,
        parse_axis_spec,
        parse_set_spec,
        quick_overrides,
        resolve_grid,
    )

    if args.list_grids or args.name is None:
        return _list_grids()
    try:
        grids = (
            list(GRIDS.values()) if args.name == "all"
            else [resolve_grid(args.name)]
        )
        axis_overrides = dict(parse_axis_spec(spec) for spec in args.axis)
        fixed_overrides = dict(parse_set_spec(spec) for spec in args.set_knobs)
        plans = []
        for grid in grids:
            axes, fixed = quick_overrides(grid) if args.quick else ({}, {})
            plans.append(
                (grid, {**axes, **axis_overrides}, {**fixed, **fixed_overrides})
            )
        if args.dry_run:
            for plan in plans:
                _print_expansion(*plan)
        elif args.profile:
            _run_profiled(plans, args.out)
        elif args.jobs <= 1:
            for plan in plans:
                _emit_grid(plan[0], *_timed_grid(plan), args.out)
        else:
            _run_parallel(plans, args.jobs, args.out)
    except ConfigError as exc:
        # Unknown grid / axis / knob names (each with a did-you-mean
        # suggestion), malformed override specs, empty axes, and engines
        # failing a grid's capability gate all land here.
        print(f"{args.command.upper()} FAILED: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_parallel(plans: list, jobs: int, out) -> None:
    """Fan cells (and, for several grids, whole grids) out over one shared
    process pool of ``jobs`` workers.

    Each grid gets its own driver thread so cells from different grids
    interleave in the pool; reports are still printed in declaration
    order, so stdout is byte-identical to a serial run.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.grid import PoolRunner, make_pool

    with make_pool(jobs) as pool, \
            ThreadPoolExecutor(max_workers=len(plans)) as drivers:
        runner = PoolRunner(pool, jobs)
        futures = [drivers.submit(_timed_grid, plan, runner) for plan in plans]
        for plan, future in zip(plans, futures):
            _emit_grid(plan[0], *future.result(), out)


def _run_profiled(plans: list, out) -> None:
    """Serial run under cProfile; prints the hottest functions per grid."""
    import cProfile
    import pstats

    for plan in plans:
        profiler = cProfile.Profile()
        profiler.enable()
        report, elapsed = _timed_grid(plan)
        profiler.disable()
        _emit_grid(plan[0], report, elapsed, out)
        print(f"\n--- profile: {plan[0].name} (top 25 by cumulative time) ---")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)


# -- acceptance suites ---------------------------------------------------------

def _run_suite(name: str, args, label: str, build: Callable,
               failed: Optional[Callable] = None) -> int:
    """The one suite path: run, print, write ``--out``, exit status.

    A suite signals a failed acceptance check by raising (a capability
    or config error, a lost result, a diverged oracle) or, for the
    sanitizer, through ``failed(report)``; either way the exit is 1 with
    ``<NAME> FAILED`` on stderr.
    """
    started = time.time()
    try:
        report = build()
    except (ConfigError, FaultError, StateError) as exc:
        print(f"{name.upper()} FAILED: {exc}", file=sys.stderr)
        return 1
    _emit(name, report, label, time.time() - started, args.out)
    if failed is not None and failed(report):
        print(f"{name.upper()} FAILED: see repro commands above", file=sys.stderr)
        return 1
    return 0


def _run_chaos(args) -> int:
    return _run_suite(
        "chaos", args, f"chaos {args.fault} seed {args.seed}",
        lambda: run_chaos(
            fault=args.fault,
            seed=args.seed,
            nodes=args.nodes,
            threads=args.threads,
            workload_name=args.workload,
            records_per_thread=args.records,
            verify_determinism=not args.no_determinism_check,
            system=args.system,
            strategy=args.strategy,
            elastic=args.elastic,
        ),
    )


def _run_elastic(args) -> int:
    records = min(args.records, 2500) if args.quick else args.records
    return _run_suite(
        "elastic", args, f"elastic {args.action} seed {args.seed}",
        lambda: run_elastic(
            system=args.system,
            workload_name=args.workload,
            nodes=args.nodes,
            threads=args.threads,
            records_per_thread=records,
            seed=args.seed,
            strategy=args.strategy,
            action=args.action,
            rescale_frac=args.rescale_frac,
            add_nodes=args.add_nodes,
            drain_node=args.drain_node,
            fluid_ranges=args.ranges,
            fluid_spread=args.spread,
        ),
    )


def _run_overload(args) -> int:
    records = min(args.records, 1000) if args.quick else args.records
    return _run_suite(
        "overload", args,
        f"overload {args.policy} at {args.rate_factor:g}x seed {args.seed}",
        lambda: run_overload(
            system=args.system,
            workload_name=args.workload,
            nodes=args.nodes,
            threads=args.threads,
            records_per_thread=records,
            seed=args.seed,
            slo_ms=args.slo_ms,
            rate_factor=args.rate_factor,
            policy=args.policy,
            tenants=args.tenants,
            zipf=args.zipf,
            fault=None if args.fault == "none" else args.fault,
        ),
    )


def _run_sanitize(args) -> int:
    from repro.sanitizer.harness import report_failed, run_sanitize

    def build():
        report = run_sanitize(
            scenarios=args.scenarios,
            seed=args.seed,
            replay=args.replay,
            shrink_failures=not args.no_shrink,
        )
        print()  # separate the progress lines from the report
        return report

    return _run_suite(
        "sanitize", args, f"sanitize seed {args.seed}", build,
        failed=report_failed,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
