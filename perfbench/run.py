"""The repository benchmark: wall-clock cost of simulating Slash, per workload.

    python3 perfbench/run.py --workload zipf-agg --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each sample runs ``perfbench/sample.py``
in a fresh, single-threaded interpreter, one after another, for
``--seconds`` (at least three samples).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics
(medians over the samples), with ``--trace 1`` the per-layer metrics of
one extra profiled sample, and the spans and per-layer tables are then
written to ``perfbench/results/<workload>-seed<seed>.trace.json``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from sample import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Mirrors ``workloads.WORKLOADS``, which the parent cannot import: it
#: never imports the library.
WORKLOADS = ("zipf-agg", "session-join", "ro-transfer", "planes-armed")

MIN_SAMPLES = 3
#: Stop starting samples when one more could overrun this (the run must
#: end within 180 s).
BUDGET_S = 150.0

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_records_per_s": "1/sim_s",
    "passed_share": "ratio",
}

COUNT_UNITS = {
    "workloads.records": "count",
    "simnet.events": "count",
    "simnet.cancelled": "count",
    "simnet.events_per_s": "1/s",
    "channel.bytes": "B",
    "channel.wait_share": "ratio",
    "channel.credit_stall_s": "sim_s",
    "rdma.retransmits": "count",
    "state.bytes": "B",
    "core.records": "count",
    "core.emitted": "count",
    "overload.offered": "count",
    "overload.admitted_ratio": "ratio",
    "overload.delay_p99_ms": "sim_ms",
    "elastic.moved_bytes": "B",
    "faults.checkpoints": "count",
    "oracle.wall_s": "s",
    "trace.overhead": "ratio",
}


def machine_info() -> dict:
    """What the results were measured on, and a fixed calibration loop's wall time."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_loop_s": time.perf_counter() - start,
    }


def run_sample(root: str, workload: str, seed: int, sample_id: str,
               trace: bool, timeout: float, expect_digest: str | None = None) -> dict:
    """Run one sample process; a crash or timeout comes back as a failed sample."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Fixed string hashing, so profiled call counts repeat across processes.
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.join(HERE, "sample.py"), "--workload", workload,
               "--seed", str(seed), "--sample-id", sample_id]
    if trace:
        command.append("--trace")
    if expect_digest:
        command += ["--expect-digest", expect_digest]
    try:
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"sample": sample_id, "ok": False, "error": f"timed out after {timeout:.0f} s"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"sample": sample_id, "ok": False,
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def _median(samples: list, key: str) -> float:
    values = [s[key] for s in samples if s.get(key) is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list) -> dict:
    measured = [s for s in samples if s.get("ok")]
    rates = [s["records"] / s["sim_wall_s"] for s in measured]
    values = {
        "records_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": _median(measured, "setup_s"),
        "peak_rss_mb": _median(measured, "peak_rss_mb"),
        "sim_records_per_s": _median(measured, "sim_records_per_s"),
        "passed_share": len(measured) / len(samples),
    }
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}


def per_layer(untraced: list, traced: dict) -> dict:
    """Layer self time and calls from the traced sample; counts alongside."""
    values: dict = {}
    layers = traced.get("layers") or {}
    for layer in LAYERS:
        row = layers.get(layer, {})
        values[f"{layer}.self_s"] = (row.get("self_s", 0.0), "s")
        values[f"{layer}.calls_in"] = (row.get("calls_in", 0), "count")
    counts = dict(traced.get("counts") or {})
    sim_wall = _median([s for s in untraced if s.get("ok")], "sim_wall_s")
    counts["simnet.events_per_s"] = counts.get("simnet.events", 0) / sim_wall if sim_wall else 0.0
    counts["oracle.wall_s"] = _median(untraced + [traced], "oracle_wall_s")
    counts["trace.overhead"] = traced.get("sim_wall_s", 0.0) / sim_wall if sim_wall else 0.0
    for name, unit in COUNT_UNITS.items():
        values[name] = (counts.get(name, 0), unit)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def result(samples: list, metrics: dict) -> dict:
    """The benchmark's last line: a run that raised or failed its check counts as failed."""
    failed = sum(1 for s in samples if not s.get("ok"))
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def write_trace(root: str, args, machine: dict, samples: list) -> str:
    """Spans as Chrome trace events, plus the traced sample's layer tables."""
    events = []
    for pid, sample in enumerate(samples):
        spans = sample.get("spans") or []
        origin = min((s["start"] for s in spans), default=0.0)
        for span in spans:
            events.append({
                "name": span["name"], "ph": "X", "pid": pid, "tid": 0,
                "ts": (span["start"] - origin) * 1e6,
                "dur": ((span["end"] or span["start"]) - span["start"]) * 1e6,
                "args": {"sample": span["sample"], "id": span["id"], "parent": span["parent"]},
            })
    traced = samples[-1]
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")
    with open(path, "w") as handle:
        json.dump({
            "traceEvents": events,
            "machine": machine,
            "traced_total_s": traced.get("total_s"),
            "layers": traced.get("layers"),
            "phases": traced.get("phases"),
            "samples": [{k: v for k, v in s.items() if k not in ("spans", "layers", "phases")}
                        for s in samples],
        }, handle, indent=1)
    return os.path.relpath(path, root)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro is missing)", file=sys.stderr)
        return 2

    machine = machine_info()
    started = time.perf_counter()
    samples: list = []
    durations: list = []
    while True:
        elapsed = time.perf_counter() - started
        # Stop when the next sample would likely end past --seconds.
        if len(samples) >= MIN_SAMPLES and elapsed + statistics.mean(durations) > args.seconds:
            break
        if samples and elapsed + 2 * max(durations) > BUDGET_S:
            break
        begin = time.perf_counter()
        # After one sample passed the reference check, the rest must repeat its digest.
        checked = next((s["digest"] for s in samples if s.get("ok")), None)
        samples.append(run_sample(root, args.workload, args.seed, str(len(samples)),
                                  False, BUDGET_S - elapsed, checked))
        durations.append(time.perf_counter() - begin)
    for sample in samples:
        if not sample.get("ok"):
            print(f"perfbench: sample {sample.get('sample')} failed: "
                  f"{sample.get('problems') or sample.get('error')}", file=sys.stderr)

    if args.trace:
        elapsed = time.perf_counter() - started
        traced = run_sample(root, args.workload, args.seed, str(len(samples)), True,
                            max(10.0, 170.0 - elapsed))
        metrics = per_layer(samples, traced)
        samples.append(traced)
        print(f"perfbench: trace written to {write_trace(root, args, machine, samples)}")
    else:
        metrics = end_to_end(samples)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result(samples, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
