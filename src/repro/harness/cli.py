"""Command-line interface: run any registered grid by name.

Usage (after ``python setup.py develop``)::

    python -m repro list
    python -m repro run fig6a --axis nodes=2,4 --set threads=4
    python -m repro run fig8d --quick --out results/
    python -m repro run all --quick -j 4
    python -m repro grid traffic-slo --axis zipf=0.8,1.6 --set seed=3
    python -m repro run chaos --axis fault=leader-crash,cascade -j 2
    python -m repro run elastic --quick --set strategy=fluid
    python -m repro run overload --set rate_factor=3 --set policy=fair

``run`` (alias ``grid``) runs one registered grid by name or panel alias,
or ``all`` of them, prints the rendered report, and optionally writes it
(plus a machine-readable JSON of the raw rows) into an output directory.
``--quick`` applies each grid's smoke sizes; ``--axis``/``--set`` win
over them.  The acceptance suites (``chaos``, ``elastic``, ``overload``,
``sanitize``) are grids too.  Exit status: 0 on success, 1 when an
acceptance check fails, 2 for a malformed request; both failures print
``<GRID> FAILED: <reason>`` on stderr (see ``docs/fault_tolerance.md``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro.common.errors import ConfigError, FaultError, StateError


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
    label = args.command
    started = time.time()
    try:
        grids = (
            list(GRIDS.values()) if args.name == "all"
            else [resolve_grid(args.name)]
        )
        if len(grids) == 1:
            label = grids[0].name
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
        # Unknown grid / axis / knob / preset / strategy names (each with
        # a did-you-mean suggestion), malformed override specs, empty
        # axes, and engines failing a capability gate all land here.
        print(f"{label.upper()} FAILED: {exc}", file=sys.stderr)
        return 2
    except (FaultError, StateError) as exc:
        # An acceptance check failed: a lost result, split brain, a
        # non-deterministic rerun, or a diverged oracle.  A check that
        # carries its report (sanitize's per-scenario rows) still prints
        # and writes it.
        report = getattr(exc, "report", None)
        if report is not None and len(grids) == 1:
            _emit_grid(grids[0], report, time.time() - started, args.out)
        print(f"{label.upper()} FAILED: {exc}", file=sys.stderr)
        return 1
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
