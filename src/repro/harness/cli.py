"""Command-line interface to the experiment harness.

Usage (after ``python setup.py develop``)::

    python -m repro list
    python -m repro run fig6a --nodes 2 4 --threads 4 --records 1500
    python -m repro run fig8d --out results/
    python -m repro run all --quick
    python -m repro grid --list
    python -m repro grid traffic-slo --axis zipf=0.8,1.6 --set seed=3 -j 4
    python -m repro chaos --seed 7 --fault leader-crash
    python -m repro elastic --strategy both --action join
    python -m repro overload --rate-factor 2 --policy all

``run`` executes one experiment (or ``all``), prints the rendered report,
and optionally writes it (plus a machine-readable JSON of the raw rows)
into an output directory.  ``chaos`` injects a seeded fault plan into a
Slash run and verifies the recovery invariants (see
``docs/fault_tolerance.md``); it exits non-zero if any window result is
lost or two same-seed runs diverge.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Optional, Sequence

from repro.common.suggest import did_you_mean, unknown_name_message
from repro.harness import experiments as exp

#: Experiment registry: id -> (description, factory(args) -> Report).
EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig6a-c": (
        "YSB/CM/NB7 windowed aggregations, weak scaling",
        lambda a: exp.fig6_aggregations(
            node_counts=a.nodes, threads=a.threads,
            workload_overrides=_size(a), runner=_runner(a),
        ),
    ),
    "fig6d-e": (
        "NB8/NB11 windowed joins, weak scaling",
        lambda a: exp.fig6_joins(
            node_counts=a.nodes, threads=a.threads,
            workload_overrides=_size(a, default_records=1000), runner=_runner(a),
        ),
    ),
    "fig7": (
        "COST analysis vs LightSaber",
        lambda a: exp.fig7_cost(
            node_counts=a.nodes, threads=a.threads,
            workload_overrides=_size(a), runner=_runner(a),
        ),
    ),
    "fig8ab": (
        "RO throughput/latency vs channel buffer size",
        lambda a: exp.fig8_buffer_sweep(
            threads=min(a.threads, 10),
            records_per_thread=a.records or 150_000, runner=_runner(a),
        ),
    ),
    "fig8c": (
        "RO throughput vs thread count",
        lambda a: exp.fig8_parallelism(
            records_per_thread=a.records or 120_000, runner=_runner(a),
        ),
    ),
    "fig8d": (
        "throughput vs Zipf key skew (RO + YSB)",
        lambda a: exp.fig8_skew(
            threads=min(a.threads, 10),
            records_per_thread=a.records or 60_000, runner=_runner(a),
        ),
    ),
    "fig9": (
        "top-down breakdown of RO (senders/receivers)",
        lambda a: exp.fig9_breakdown_ro(
            records_per_thread=a.records or 120_000, runner=_runner(a),
        ),
    ),
    "fig10": (
        "top-down breakdown of end-to-end YSB",
        lambda a: exp.fig10_breakdown_ysb(
            threads=min(a.threads, 10), records_per_thread=a.records or 6_000,
            runner=_runner(a),
        ),
    ),
    "table1": (
        "resource utilisation counters, YSB on 2 nodes",
        lambda a: exp.table1_counters(
            threads=min(a.threads, 10), records_per_thread=a.records or 6_000,
            runner=_runner(a),
        ),
    ),
    "abl-credits": (
        "ablation: channel credit count",
        lambda a: exp.ablation_credits(
            records_per_thread=a.records or 120_000, runner=_runner(a),
        ),
    ),
    "abl-epoch": (
        "ablation: SSB epoch length",
        lambda a: exp.ablation_epoch_bytes(runner=_runner(a)),
    ),
    "abl-exec": (
        "ablation: compiled vs interpreted execution",
        lambda a: exp.ablation_execution_strategy(runner=_runner(a)),
    ),
    "extra-latency": (
        "extra: window trigger lag per system",
        lambda a: exp.extra_trigger_latency(
            threads=min(a.threads, 10), records_per_thread=a.records or 6_000,
            runner=_runner(a),
        ),
    ),
    "abl-signal": (
        "ablation: selective signaling",
        lambda a: exp.ablation_selective_signaling(
            records_per_thread=a.records or 120_000, runner=_runner(a),
        ),
    ),
}

#: Per-panel figure ids (fig6a -> fig6a-c, ...): no longer a hand-kept
#: table — each grid declares its own panel aliases, and the registry
#: aggregates them (see ``repro.grid.registry.GRID_ALIASES``).
from repro.grid import GRID_ALIASES as ALIASES  # noqa: E402


def _runner(args):
    """The CellRunner attached by ``main`` (None -> serial)."""
    return getattr(args, "runner", None)

#: Reduced knobs used by --quick (and by the CLI tests).
QUICK = {"nodes": (2, 4), "threads": 4, "records": 1200}


def _size(args, default_records: int = 2500) -> dict:
    records = args.records or default_records
    return {"records_per_thread": records, "batch_records": max(64, records // 5)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Rethinking "
        "Stateful Stream Processing with RDMA' (SIGMOD 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument("--nodes", type=int, nargs="+", default=[2, 4, 8, 16],
                     help="node counts for weak-scaling experiments")
    run.add_argument("--threads", type=int, default=10,
                     help="worker threads per node")
    run.add_argument("--records", type=int, default=None,
                     help="records per thread (default: per-experiment)")
    run.add_argument("--quick", action="store_true",
                     help="small sizes for a fast smoke run")
    run.add_argument("-j", "--jobs", type=int, default=1,
                     help="fan independent sweep cells over N worker "
                          "processes (output stays byte-identical to -j 1)")
    run.add_argument("--profile", action="store_true",
                     help="profile the run with cProfile and print the "
                          "hottest functions (forces -j 1)")
    run.add_argument("--out", type=pathlib.Path, default=None,
                     help="directory to write <id>.txt and <id>.json into")

    grid = sub.add_parser(
        "grid",
        help="run a declarative sweep grid by name (axes x cell template; "
             "see 'grid --list')",
    )
    grid.add_argument("name", nargs="?", default=None,
                      help="grid name or panel alias from 'grid --list'")
    grid.add_argument("--list", action="store_true", dest="list_grids",
                      help="list registered grids with their axes")
    grid.add_argument("--axis", action="append", default=[],
                      metavar="NAME=V1,V2,...",
                      help="override one axis's swept values (repeatable); "
                           "engine axes keep their capability gate")
    grid.add_argument("--set", action="append", default=[], dest="set_knobs",
                      metavar="NAME=VALUE",
                      help="override one fixed knob (repeatable)")
    grid.add_argument("--dry-run", action="store_true",
                      help="expand the grid and print its cells without "
                           "running any simulation")
    grid.add_argument("-j", "--jobs", type=int, default=1,
                      help="fan grid cells over N worker processes "
                           "(output stays byte-identical to -j 1)")
    grid.add_argument("--out", type=pathlib.Path, default=None,
                      help="directory to write <name>.txt and <name>.json into")

    from repro.faults.plan import PRESETS

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection run: inject a fault preset, verify recovery",
    )
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


def _build_report(name: str, args):
    """Run one experiment; returns ``(report, description, elapsed_s)``."""
    description, factory = EXPERIMENTS[name]
    started = time.time()
    report = factory(args)
    return report, description, time.time() - started


def _emit(name: str, report, description: str, elapsed: float,
          out: Optional[pathlib.Path]) -> None:
    print(report.render())
    print(f"\n[{name}: {description} — {elapsed:.1f}s wall]")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(report.render() + "\n")
        (out / f"{name}.json").write_text(
            json.dumps(_jsonable(report.rows), indent=2) + "\n"
        )


def _run_one(name: str, args, out: Optional[pathlib.Path]) -> None:
    report, description, elapsed = _build_report(name, args)
    _emit(name, report, description, elapsed, out)


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


def _run_chaos(args) -> int:
    from repro.common.errors import ConfigError, FaultError
    from repro.core.system import RECOVERY_STRATEGIES
    from repro.faults.plan import PRESETS

    if args.fault not in PRESETS:
        message = unknown_name_message("fault preset", args.fault, PRESETS)
        print(f"CHAOS FAILED: {message}", file=sys.stderr)
        return 1
    if args.strategy != "both" and args.strategy not in RECOVERY_STRATEGIES:
        message = unknown_name_message(
            "recovery strategy", args.strategy, RECOVERY_STRATEGIES + ("both",)
        )
        print(f"CHAOS FAILED: {message}", file=sys.stderr)
        return 1

    started = time.time()
    try:
        report = exp.run_chaos(
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
        )
    except (ConfigError, FaultError) as exc:
        # ConfigError covers unknown engine names (with a did-you-mean
        # suggestion from the registry) and capability errors — an engine
        # that cannot absorb the requested fault kinds fails here, fast.
        print(f"CHAOS FAILED: {exc}", file=sys.stderr)
        return 1
    elapsed = time.time() - started
    print(report.render())
    print(f"\n[chaos {args.fault} seed {args.seed} — {elapsed:.1f}s wall]")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "chaos.txt").write_text(report.render() + "\n")
        (args.out / "chaos.json").write_text(
            json.dumps(_jsonable(report.rows), indent=2) + "\n"
        )
    return 0


def _run_elastic(args) -> int:
    from repro.common.errors import (
        CapabilityError,
        ConfigError,
        StateError,
    )
    from repro.core.system import MIGRATION_STRATEGIES

    if args.strategy != "both" and args.strategy not in MIGRATION_STRATEGIES:
        message = unknown_name_message(
            "migration strategy", args.strategy,
            tuple(sorted(MIGRATION_STRATEGIES)) + ("both",),
        )
        print(f"ELASTIC FAILED: {message}", file=sys.stderr)
        return 1
    if args.quick:
        args.records = min(args.records, 2500)

    started = time.time()
    try:
        report = exp.run_elastic(
            system=args.system,
            workload_name=args.workload,
            nodes=args.nodes,
            threads=args.threads,
            records_per_thread=args.records,
            seed=args.seed,
            strategy=args.strategy,
            action=args.action,
            rescale_frac=args.rescale_frac,
            add_nodes=args.add_nodes,
            drain_node=args.drain_node,
            fluid_ranges=args.ranges,
            fluid_spread=args.spread,
        )
    except (CapabilityError, ConfigError, StateError) as exc:
        # CapabilityError: a non-elastic engine (with the elastic-capable
        # set in the message); ConfigError: a rescale_at past the horizon
        # or a malformed plan; StateError: the oracle caught a divergence.
        print(f"ELASTIC FAILED: {exc}", file=sys.stderr)
        return 1
    elapsed = time.time() - started
    print(report.render())
    print(f"\n[elastic {args.action} seed {args.seed} — "
          f"{elapsed:.1f}s wall]")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "elastic.txt").write_text(report.render() + "\n")
        (args.out / "elastic.json").write_text(
            json.dumps(_jsonable(report.rows), indent=2) + "\n"
        )
    return 0


def _run_overload(args) -> int:
    from repro.common.errors import (
        CapabilityError,
        ConfigError,
        StateError,
    )

    if args.quick:
        args.records = min(args.records, 1000)
    started = time.time()
    try:
        report = exp.run_overload(
            system=args.system,
            workload_name=args.workload,
            nodes=args.nodes,
            threads=args.threads,
            records_per_thread=args.records,
            seed=args.seed,
            slo_ms=args.slo_ms,
            rate_factor=args.rate_factor,
            policy=args.policy,
            tenants=args.tenants,
            zipf=args.zipf,
            fault=None if args.fault == "none" else args.fault,
        )
    except (CapabilityError, ConfigError, StateError) as exc:
        # CapabilityError: an engine with no overload plane (with the
        # overload-capable set in the message) or an unsupported policy;
        # ConfigError: a malformed OverloadConfig (with did-you-mean for
        # policy typos); StateError: the acceptance gates failed — the
        # no-shed run met the SLO, a shedding run violated it, or the
        # differential oracle found a silently-lost record.
        print(f"OVERLOAD FAILED: {exc}", file=sys.stderr)
        return 1
    elapsed = time.time() - started
    print(report.render())
    print(f"\n[overload {args.policy} at {args.rate_factor:g}x seed "
          f"{args.seed} — {elapsed:.1f}s wall]")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "overload.txt").write_text(report.render() + "\n")
        (args.out / "overload.json").write_text(
            json.dumps(_jsonable(report.rows), indent=2) + "\n"
        )
    return 0


def _list_grids() -> int:
    from repro.grid import GRIDS

    width = max(len(name) for name in GRIDS)
    for name, grid in GRIDS.items():
        axes = ", ".join(grid.axis_names())
        alias = f" (aliases: {', '.join(grid.aliases)})" if grid.aliases else ""
        print(f"{name:<{width}}  {grid.description} [axes: {axes}]{alias}")
    return 0


def _run_grid(args) -> int:
    from repro.common.errors import ConfigError
    from repro.grid import (
        expand_grid,
        parse_axis_spec,
        parse_set_spec,
        resolve_grid,
        run_grid,
    )

    if args.list_grids or args.name is None:
        return _list_grids()
    try:
        grid = resolve_grid(args.name)
        axis_overrides = dict(parse_axis_spec(spec) for spec in args.axis)
        fixed_overrides = dict(parse_set_spec(spec) for spec in args.set_knobs)
        if args.dry_run:
            run = expand_grid(grid, axis_overrides, fixed_overrides)
            print(f"grid {grid.name}: {len(run.cells)} cells")
            for name in grid.axis_names():
                values = ", ".join(str(v) for v in run.axis(name))
                print(f"  axis {name}: {values}")
            for point, (kind, _params) in zip(run.points, run.cells):
                label = ", ".join(f"{k}={v}" for k, v in point.items())
                print(f"  [{kind}] {label}")
            return 0
        started = time.time()
        jobs = max(1, args.jobs)
        if jobs == 1:
            report = run_grid(grid, axis_overrides, fixed_overrides)
        else:
            from repro.grid import PoolRunner, make_pool

            with make_pool(jobs) as pool:
                report = run_grid(
                    grid, axis_overrides, fixed_overrides,
                    runner=PoolRunner(pool, jobs),
                )
    except ConfigError as exc:
        # Unknown grid / axis / knob names (each with a did-you-mean
        # suggestion), malformed override specs, empty axes, and engines
        # failing a grid's capability gate all land here.
        print(f"GRID FAILED: {exc}", file=sys.stderr)
        return 2
    _emit(grid.name, report, grid.description, time.time() - started, args.out)
    return 0


def _run_sanitize(args) -> int:
    from repro.sanitizer.harness import report_failed, run_sanitize

    started = time.time()
    report = run_sanitize(
        scenarios=args.scenarios,
        seed=args.seed,
        replay=args.replay,
        shrink_failures=not args.no_shrink,
    )
    elapsed = time.time() - started
    print()
    print(report.render())
    print(f"\n[sanitize seed {args.seed} — {elapsed:.1f}s wall]")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "sanitize.txt").write_text(report.render() + "\n")
        (args.out / "sanitize.json").write_text(
            json.dumps(_jsonable(report.rows), indent=2) + "\n"
        )
    if report_failed(report):
        print("SANITIZE FAILED: see repro commands above", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (description, _factory) in EXPERIMENTS.items():
            print(f"{name:<{width}}  {description}")
        return 0
    if args.command == "grid":
        return _run_grid(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "elastic":
        return _run_elastic(args)
    if args.command == "overload":
        return _run_overload(args)
    if args.command == "sanitize":
        return _run_sanitize(args)
    if args.quick:
        args.nodes = list(QUICK["nodes"])
        args.threads = QUICK["threads"]
        args.records = args.records or QUICK["records"]
    args.nodes = tuple(args.nodes)
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    targets = [ALIASES.get(t, t) for t in targets]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        known = list(EXPERIMENTS) + list(ALIASES)
        hints = []
        for miss in unknown:
            close = did_you_mean(miss, known)
            if close:
                hints.append(f"did you mean {ALIASES.get(close, close)!r}?")
        hint = (" " + " ".join(hints)) if hints else ""
        print(
            f"unknown experiment(s): {unknown}; see 'repro list'.{hint}",
            file=sys.stderr,
        )
        return 2
    jobs = max(1, args.jobs)
    if args.profile:
        return _run_profiled(targets, args)
    if jobs == 1:
        args.runner = None
        for name in targets:
            _run_one(name, args, args.out)
        return 0
    return _run_parallel(targets, args, jobs)


def _run_parallel(targets: list, args, jobs: int) -> int:
    """Fan sweep cells (and, for several targets, whole experiments) out
    over one shared process pool of ``jobs`` workers.

    Each experiment gets its own driver thread so cells from different
    experiments interleave in the pool; reports are still printed in
    declaration order, so stdout is byte-identical to a serial run.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.grid.cells import PoolRunner, make_pool

    with make_pool(jobs) as pool:
        args.runner = PoolRunner(pool, jobs)
        if len(targets) == 1:
            _run_one(targets[0], args, args.out)
            return 0
        with ThreadPoolExecutor(max_workers=len(targets)) as drivers:
            futures = [
                drivers.submit(_build_report, name, args) for name in targets
            ]
            for name, future in zip(targets, futures):
                report, description, elapsed = future.result()
                _emit(name, report, description, elapsed, args.out)
    return 0


def _run_profiled(targets: list, args) -> int:
    """Serial run under cProfile; prints the hottest functions per target."""
    import cProfile
    import pstats

    args.runner = None  # profiling a pool of workers profiles only the parent
    for name in targets:
        profiler = cProfile.Profile()
        profiler.enable()
        report, description, elapsed = _build_report(name, args)
        profiler.disable()
        _emit(name, report, description, elapsed, args.out)
        print(f"\n--- profile: {name} (top 25 by cumulative time) ---")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
