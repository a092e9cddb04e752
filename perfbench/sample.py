"""One benchmark sample: generate, build, simulate and check one workload.

``run.py`` starts this file in a fresh interpreter for every sample, so a
cache one sample fills can never serve the next::

    python3 perfbench/sample.py --workload zipf-agg --seed 1 [--trace] [--scale 0.05]
        [--expect-digest HEX]

It prints one JSON object: the phase timings, peak RSS, the simulated
throughput, the named counts, the output check's verdict and digest,
the spans, and with ``--trace`` the per-layer table.  ``import repro``
and the import of every measured layer's modules happen before the
first timed phase.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import resource
import sys
import time
import traceback
from contextlib import contextmanager

#: The ``repro.<subpackage>`` layers on the measured path.  The grid,
#: harness and sanitizer packages are off it by design.
LAYERS = (
    "workloads", "simnet", "rdma", "channel", "state", "core", "baselines",
    "overload", "elastic", "faults", "membership", "runtime", "common", "metrics",
)

#: The seed whose simulated observables are pinned below.
DEFAULT_SEED = 1

#: sha256 of every run's simulated observables at ``DEFAULT_SEED`` and
#: full size.  A change that alters a simulated result must re-pin these.
PINNED_DIGESTS = {
    "zipf-agg": "f6ddb73d56e1573a051254f85d387ad21fb0a8661eb49979f1975e4b9303dab5",
    "session-join": "f66f4cbf3d27171287c5a2a3e6b1b79004012d92679a8da4bdc33eb80150129a",
    "ro-transfer": "81afc6448498c4bf8d3a4b629c18edf97da3b802941a898d4ab0c48e5afa7cbc",
    "planes-armed": "06b62edb1a09e4101527ea5d9a44ae893ea8bc47b23a1fee822c8312f04fddc3",
}


def import_layers() -> str:
    """Import every module of the measured layers; return repro's directory."""
    import repro

    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.iter_modules(package.__path__, f"repro.{layer}."):
            importlib.import_module(info.name)
    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class Calls:
    """Invokes library calls for the workloads, recording one span per call.

    With ``profile`` on, each call runs under its own deterministic
    profiler; the raw entries are attributed to layers after the run, so
    attribution never lands inside a timed phase.
    """

    def __init__(self, sample_id: str, profile: bool):
        self.sample_id = sample_id
        self.profile = profile
        self.spans: list = []
        self.profiles: list = []  # (phase, root layer, getstats entries)
        self._phase = None
        self._profiling = False

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        if self._profiling:
            profiler = cProfile.Profile()
            result = profiler.runcall(fn, *args, **kwargs)
            end = time.perf_counter()
            root = fn.__module__.split(".")[1]
            self.profiles.append((self._phase["name"], root, profiler.getstats()))
        else:
            result = fn(*args, **kwargs)
            end = time.perf_counter()
        self._span(getattr(fn, "__qualname__", repr(fn)), start, end, self._phase)
        return result

    def _span(self, name, start, end, parent) -> dict:
        span = {
            "id": len(self.spans), "name": name, "sample": self.sample_id,
            "start": start, "end": end,
            "parent": parent["id"] if parent is not None else None,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def phase(self, name: str, profiled: bool = True):
        span = self._span(name, time.perf_counter(), None, None)
        self._phase, self._profiling = span, self.profile and profiled
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._phase, self._profiling = None, False


@contextmanager
def simulators_logged(log: list):
    """Append every Simulator the library constructs to ``log``."""
    from repro.simnet.kernel import Simulator

    original = Simulator.__init__

    def init(sim, *args, **kwargs):
        original(sim, *args, **kwargs)
        log.append(sim)

    Simulator.__init__ = init
    try:
        yield log
    finally:
        Simulator.__init__ = original


def _jsonable(value):
    """``json.dumps`` fallback for the non-JSON types in run observables."""
    import numpy as np

    if isinstance(value, (set, frozenset)):
        return sorted(value, key=str)
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _is_transfer(result) -> bool:
    return hasattr(result, "payload_bytes")


def observables(result) -> dict:
    """What a run simulated: sim time, counters, outputs, plane reports."""
    if _is_transfer(result):
        return {
            "sim_seconds": result.sim_seconds,
            "records": result.records,
            "payload_bytes": result.payload_bytes,
            "latency_s": [result.mean_latency_s, result.max_latency_s],
            "credit_stall_s": result.credit_stall_s,
            "counters": [result.sender_counters, result.receiver_counters],
            "state": sorted(result.state.items()),
        }
    return {
        "sim_seconds": result.sim_seconds,
        "input_records": result.input_records,
        "emitted": result.emitted,
        "counters": result.counters,
        "aggregates": sorted(result.aggregates.items()),
        "join_pairs": result.sorted_join_pairs(),
        "planes": {
            plane: result.extra[plane]
            for plane in ("faults", "elastic", "overload")
            if plane in result.extra
        },
    }


def digest(results) -> str:
    payload = json.dumps(
        [[label, observables(result)] for label, result in results],
        separators=(",", ":"), sort_keys=True, default=_jsonable,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def named_counts(generated: int, results, sims) -> dict:
    """The per-layer counts taken from run outputs and the run's Simulators."""
    counters, credit_stall, state_bytes, records, emitted = [], 0.0, 0, 0, 0
    planes: dict = {}
    for _label, result in results:
        if _is_transfer(result):
            counters += [result.sender_counters, result.receiver_counters]
            credit_stall += result.credit_stall_s
            records += result.records
        else:
            counters.append(result.counters)
            state_bytes += result.extra.get("state_bytes", 0)
            records += result.input_records
            emitted += result.emitted
            for plane in ("overload", "elastic", "faults"):
                planes.setdefault(plane, result.extra.get(plane))
    cycles = sum(c.total_cycles for c in counters)
    overload = planes.get("overload") or {}
    offered = overload.get("offered", 0)
    return {
        "workloads.records": generated,
        "simnet.events": sum(sim.scheduled_events for sim in sims),
        "simnet.cancelled": sum(sim.cancelled_events for sim in sims),
        "channel.bytes": sum(c.network_bytes for c in counters),
        "channel.wait_share": sum(c.wait_cycles for c in counters) / cycles if cycles else 0.0,
        "channel.credit_stall_s": credit_stall,
        "rdma.retransmits": sum(c.retransmits for c in counters),
        "state.bytes": state_bytes,
        "core.records": records,
        "core.emitted": emitted,
        "overload.offered": offered,
        "overload.admitted_ratio": overload["admitted"] / offered if offered else 0.0,
        "overload.delay_p99_ms": overload.get("delay_p99_ms", 0.0),
        "elastic.moved_bytes": (planes.get("elastic") or {}).get("moved_bytes", 0),
        "faults.checkpoints": (planes.get("faults") or {}).get("checkpoints_taken", 0),
    }


def layer_tables(profiles, repro_dir: str) -> dict:
    """Whole-sample and per-phase ``{layer: {self_s, calls_in}}`` tables."""
    from attribution import attribute, total_self_time

    whole: dict = {}
    phases: dict = {}
    total = 0.0
    for phase, root, entries in profiles:
        total += total_self_time(entries)
        for layer, row in attribute(entries, repro_dir, root).items():
            for table in (whole, phases.setdefault(phase, {})):
                into = table.setdefault(layer, {"self_s": 0.0, "calls_in": 0})
                into["self_s"] += row["self_s"]
                into["calls_in"] += row["calls_in"]
    return {"total_s": total, "layers": whole, "phases": phases}


def run_sample(workload_name: str, seed: int, sample_id: str = "0",
               trace: bool = False, scale: float = 1.0, tamper=None,
               expect_digest: str | None = None) -> dict:
    """One sample; ``tamper`` may rewrite the flows handed to the engines.

    The output check runs the reference engine, unless ``expect_digest``
    names the digest of an earlier, fully checked sample of the same
    workload and seed: the run is deterministic, so equal observables
    are equally correct.
    """
    repro_dir = import_layers()
    from workloads import WORKLOADS, count_records

    spec = WORKLOADS[workload_name]
    calls = Calls(sample_id, profile=trace)
    out = {"sample": sample_id, "workload": workload_name, "seed": seed,
           "traced": trace, "ok": False, "problems": [], "error": None}
    sims: list = []
    try:
        with simulators_logged(sims):
            with calls.phase("generate") as generate:
                workload, flows = spec.generate(calls, seed, scale)
            with calls.phase("build") as build:
                runs = spec.build(calls, workload, tamper(flows) if tamper else flows, seed)
            with calls.phase("simulate"):
                results, sim_wall = [], 0.0
                for label, run, args in runs:
                    start = time.perf_counter()
                    results.append((label, calls(run, *args)))
                    sim_wall += time.perf_counter() - start
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            run_sims = list(sims)
        generated = count_records(flows)
        out.update(
            setup_s=build["end"] - generate["start"],
            sim_wall_s=sim_wall,
            records=generated * len(results),
            sim_records_per_s=results[0][1].throughput_records_per_s,
            peak_rss_mb=peak_rss_mb,
            counts=named_counts(generated, results, run_sims),
        )
        with calls.phase("check", profiled=False):
            out["digest"] = digest(results)
            if expect_digest is None:
                check = spec.check(calls, workload, flows, results)
                out["oracle_wall_s"] = check.oracle_wall_s
                out["problems"] = list(check.problems)
            elif out["digest"] != expect_digest:
                out["problems"].append(
                    f"digest {out['digest']} differs from the checked sample's {expect_digest}"
                )
        pinned = PINNED_DIGESTS.get(workload_name)
        if seed == DEFAULT_SEED and scale == 1.0 and pinned and out["digest"] != pinned:
            out["problems"].append(
                f"digest {out['digest']} differs from the pinned {pinned}"
            )
        out["ok"] = not out["problems"]
    except Exception:  # a failed run is counted, never fatal to the benchmark
        out["error"] = traceback.format_exc()
    out["spans"] = calls.spans
    if trace:
        out.update(layer_tables(calls.profiles, repro_dir))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample-id", default="0")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--expect-digest")
    args = parser.parse_args(argv)
    out = run_sample(args.workload, args.seed, args.sample_id, args.trace, args.scale,
                     expect_digest=args.expect_digest)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
