#!/usr/bin/env python
"""Wall-clock benchmark harness: the repo's tracked perf trajectory.

Times every registered grid (plus a kernel event-loop microbench and a
live-migration bench) and writes ``BENCH_wallclock.json``::

    python benchmarks/bench_wallclock.py --quick --out BENCH_wallclock.json
    python benchmarks/bench_wallclock.py --experiments fig8ab table1
    python benchmarks/bench_wallclock.py --quick \
        --check-against BENCH_wallclock.json   # CI regression gate

Per experiment it records the wall seconds and a sha256 digest of the
rendered report; ``--quick`` runs each grid at its declared ``quick``
sizes.  The digest is the determinism check: simulated results are
wall-clock independent, so a same-size run must reproduce the committed
digest exactly (wall seconds, of course, vary).  ``--check-against``
fails (exit 1) if any tracked experiment is more than ``--threshold``
times slower than the committed baseline, if an experiment digest
differs from a baseline entry recorded at the same ``quick``/``jobs``,
if the migration digest differs from a baseline recorded at the same
size, or if the kernel microbench drops below ``--kernel-floor``
(default 35%) of the baseline's events/sec — a ratchet against the
scheduling core quietly losing its sole-runnable chain.
``--profile [N]`` additionally re-runs each experiment under cProfile
and records its top-N cumulative frames under the entry's ``hotspots``
key.

Simulated results are wall-clock independent, so quick-mode timings are
a faithful *relative* trajectory even though absolute numbers are small.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA = 1
#: Events for the kernel event-loop microbench (half timed, half ready).
KERNEL_EVENTS = 200_000


def bench_kernel(events: int = KERNEL_EVENTS, repeats: int = 3) -> dict:
    """Events/sec through the simulation kernel's scheduling hot path.

    Alternates timed and zero-delay waits so both the timer heap and the
    ready-deque fast path are exercised.  Best-of-``repeats`` so the
    committed number reflects the kernel, not a scheduler hiccup.
    """
    from repro.simnet.kernel import Simulator, Timeout

    best = None
    for _ in range(repeats):
        sim = Simulator()

        def body():
            for _ in range(events // 2):
                yield Timeout(1e-6)
                yield Timeout(0.0)

        sim.process(body(), name="kernel-bench")
        started = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - started
        run = {
            "events": sim.scheduled_events,
            "wall_s": round(wall, 4),
            "events_per_s": round(sim.scheduled_events / wall),
            "sim_seconds": sim.now,
        }
        if best is None or run["events_per_s"] > best["events_per_s"]:
            best = run
    return best


def profile_experiment(report_factory, top: int = 15) -> list[str]:
    """Run one experiment under cProfile; return the top-``top`` frames
    by cumulative time as pre-formatted report lines."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report_factory()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    # Keep only the table body (skip the pstats banner noise).
    lines = buffer.getvalue().splitlines()
    start = next(
        (i for i, line in enumerate(lines) if "ncalls" in line), 0
    )
    return [line.rstrip() for line in lines[start:] if line.strip()]


def bench_experiment(
    name: str, quick: bool, jobs: int, profile: int = 0
) -> dict:
    """One registered grid: wall seconds plus a digest of the rendered report."""
    from repro.grid import (
        PoolRunner,
        make_pool,
        quick_overrides,
        resolve_grid,
        run_grid,
    )

    grid = resolve_grid(name)
    axes, fixed = quick_overrides(grid) if quick else ({}, {})
    runner = pool = None
    if jobs > 1:
        pool = make_pool(jobs)
        runner = PoolRunner(pool, jobs)

    def factory():
        return run_grid(grid, axes, fixed, runner=runner)

    try:
        started = time.perf_counter()
        report = factory()
        wall = time.perf_counter() - started
        hotspots = profile_experiment(factory, profile) if profile else None
    finally:
        if pool is not None:
            pool.shutdown()
    rendered = report.render()
    entry = {
        "wall_s": round(wall, 3),
        "digest": hashlib.sha256(rendered.encode()).hexdigest(),
        "quick": quick,
        "jobs": jobs,
    }
    if hotspots is not None:
        entry["hotspots"] = hotspots
    return entry


#: Scale for the migration spike bench: large enough that the fluid
#: strategy's per-range sub-moves genuinely beat the all-at-once bulk
#: stall (tiny states hit the per-round scheduling floor instead).
MIGRATION_RECORDS = 20_000


def bench_migration() -> dict:
    """Migration-window p99 spike, fluid vs all-at-once, plus the gate.

    Runs the elastic differential experiment (static baseline + one
    migrated run per strategy, oracle-checked) at a state size where
    the Megaphone-style fluid strategy must win: committing this entry
    ratchets the *simulated* spike ratio, which is wall-clock
    independent and therefore exact across machines.  ``fluid_wins``
    doubles as a correctness gate — fluid p99 regressing above the
    all-at-once p99 means the sub-move interleaving stopped amortising
    the stall.
    """
    from repro.grid.suites import run_elastic

    started = time.perf_counter()
    report = run_elastic(
        strategy="both", records_per_thread=MIGRATION_RECORDS
    )
    wall = time.perf_counter() - started
    by_strategy = {row["strategy"]: row for row in report.rows}
    fluid = by_strategy["fluid"]
    bulk = by_strategy["all-at-once"]
    return {
        "wall_s": round(wall, 3),
        "digest": hashlib.sha256(report.render().encode()).hexdigest(),
        "records_per_thread": MIGRATION_RECORDS,
        "all_at_once_p99_s": bulk["window_p99_s"],
        "fluid_p99_s": fluid["window_p99_s"],
        "all_at_once_spike": round(bulk["p99_spike"], 3),
        "fluid_spike": round(fluid["p99_spike"], 3),
        "fluid_wins": fluid["window_p99_s"] < bulk["window_p99_s"],
        "oracle_ok": bool(fluid["oracle_ok"] and bulk["oracle_ok"]),
    }


#: CI floor for kernel.events_per_s as a fraction of the committed
#: baseline.  Deliberately loose: shared CI runners are routinely 2-3x
#: slower than the machine that produced the baseline, so the ratchet
#: only catches order-of-magnitude regressions (e.g. the sole-runnable
#: chain silently disengaging so every event round-trips through the
#: queues), not runner jitter.
KERNEL_FLOOR_FRACTION = 0.35


def check_against(
    current: dict,
    baseline_path: pathlib.Path,
    threshold: float,
    kernel_floor: float = KERNEL_FLOOR_FRACTION,
) -> int:
    """Exit status for the CI gate: 1 if any experiment regressed or
    changed its digest, the migration bench lost its ordering or changed
    its digest, or the kernel microbench fell below its ratcheted
    events/sec floor."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    base_kernel = baseline.get("kernel")
    cur_kernel = current.get("kernel")
    if base_kernel and cur_kernel:
        floor = base_kernel["events_per_s"] * kernel_floor
        rate = cur_kernel["events_per_s"]
        status = "OK" if rate >= floor else "REGRESSED"
        print(
            f"[bench] kernel: {rate:,} events/s vs baseline "
            f"{base_kernel['events_per_s']:,} (floor {floor:,.0f}, "
            f"{kernel_floor:.0%} of baseline) {status}"
        )
        if rate < floor:
            failures.append("kernel.events_per_s")
    migration = current.get("migration")
    if migration is not None:
        # The spike ordering is simulated time — machine-independent, so
        # it gates absolutely rather than against the baseline entry.
        fl, bulk = migration["fluid_p99_s"], migration["all_at_once_p99_s"]
        status = "OK" if migration["fluid_wins"] else "REGRESSED"
        print(
            f"[bench] migration: fluid p99 {fl * 1e6:.1f}us vs all-at-once "
            f"{bulk * 1e6:.1f}us (spikes {migration['fluid_spike']}x / "
            f"{migration['all_at_once_spike']}x) {status}"
        )
        if not migration["fluid_wins"]:
            failures.append("migration.fluid_wins")
        if not migration["oracle_ok"]:
            print("[bench] migration: oracle FAILED")
            failures.append("migration.oracle_ok")
        base_migration = baseline.get("migration")
        if (
            base_migration is not None
            and base_migration.get("records_per_thread")
            == migration["records_per_thread"]
            and base_migration.get("digest") != migration["digest"]
        ):
            print(
                f"[bench] migration: digest {migration['digest'][:12]} vs "
                f"baseline {base_migration.get('digest', '')[:12]} CHANGED"
            )
            failures.append("migration.digest")
    for name, entry in current["experiments"].items():
        base = baseline.get("experiments", {}).get(name)
        if base is None:
            print(f"[bench] {name}: no baseline entry, skipping gate")
            continue
        ratio = entry["wall_s"] / base["wall_s"] if base["wall_s"] else 1.0
        status = "OK" if ratio <= threshold else "REGRESSED"
        if ratio > threshold:
            failures.append(name)
        # Digests only compare across runs of the same sizes.
        if (entry["quick"], entry["jobs"]) != (base.get("quick"), base.get("jobs")):
            digest = "unchecked (baseline sizes differ)"
        elif entry["digest"] == base.get("digest"):
            digest = "same"
        else:
            digest = f"CHANGED from {base.get('digest', '')[:12]}"
            failures.append(f"{name}.digest")
        print(
            f"[bench] {name}: {entry['wall_s']:.2f}s vs baseline "
            f"{base['wall_s']:.2f}s ({ratio:.2f}x) {status}; digest {digest}"
        )
    if failures:
        print(
            f"[bench] FAIL (>{threshold}x slower or changed digest): "
            f"{', '.join(failures)}"
        )
        return 1
    return 0


def main(argv=None) -> int:
    from repro.common.errors import ConfigError
    from repro.grid import grid_names, resolve_grid

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiments", nargs="+", default=None,
                        help="grid names or aliases to bench "
                             "(default: every registered grid)")
    parser.add_argument("--quick", action="store_true",
                        help="bench at --quick sizes")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes per experiment run")
    parser.add_argument("--skip-kernel", action="store_true",
                        help="skip the kernel events/sec microbench")
    parser.add_argument("--skip-migration", action="store_true",
                        help="skip the live-migration spike bench")
    parser.add_argument("--profile", type=int, nargs="?", const=15, default=0,
                        metavar="N",
                        help="after timing, re-run each experiment under "
                             "cProfile and record its top-N cumulative "
                             "frames (default N=15)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON here (default: stdout only)")
    parser.add_argument("--check-against", type=pathlib.Path, default=None,
                        help="baseline BENCH_wallclock.json to gate against")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="max allowed wall_s ratio vs baseline")
    parser.add_argument("--kernel-floor", type=float,
                        default=KERNEL_FLOOR_FRACTION,
                        help="min kernel events/s as a fraction of baseline")
    args = parser.parse_args(argv)

    try:
        names = [resolve_grid(n).name for n in args.experiments or grid_names()]
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2

    result: dict = {"schema": SCHEMA, "experiments": {}}
    if not args.skip_kernel:
        result["kernel"] = bench_kernel()
        print(f"[bench] kernel: {result['kernel']['events_per_s']:,} events/s")
    if not args.skip_migration:
        result["migration"] = bench_migration()
        print(
            f"[bench] migration: fluid spike "
            f"{result['migration']['fluid_spike']}x vs all-at-once "
            f"{result['migration']['all_at_once_spike']}x "
            f"({result['migration']['wall_s']:.2f}s)"
        )
    for name in names:
        entry = bench_experiment(
            name, quick=args.quick, jobs=args.jobs, profile=args.profile
        )
        result["experiments"][name] = entry
        print(f"[bench] {name}: {entry['wall_s']:.2f}s  digest {entry['digest'][:12]}")
        if args.profile:
            for line in entry["hotspots"][: 3 + args.profile]:
                print(f"    {line}")

    payload = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(payload)
        print(f"[bench] wrote {args.out}")
    else:
        print(payload)

    if args.check_against is not None:
        return check_against(
            result, args.check_against, args.threshold,
            kernel_floor=args.kernel_floor,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
