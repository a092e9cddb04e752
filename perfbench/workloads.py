"""The benchmark's four workloads, driven through ``repro.runtime``.

Each workload is three steps with the library, plus a check:

* ``generate`` — build the workload and generate every worker's flows
  (``make_workload`` + ``Workload.flows``);
* ``build`` — construct the engines or transfer benches and attach the
  optional planes (``REGISTRY.create`` / ``REGISTRY.transfer_bench`` and
  the engine's ``attach_*``); returns one ``(label, run, args)`` per
  simulation to time;
* ``check`` — compare the outputs with the sequential ``reference``
  engine on the same flows, outside every timed phase.

Library calls go through ``call(fn, *args, **kwargs)``, which records a
span and, in a traced run, profiles the call.  ``scale`` multiplies the
per-thread input size; the benchmark always runs at 1.0, its tests at a
tiny fraction.  Sizes are chosen so one sample's simulation takes one to
two wall seconds on a 2-core x86 box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.transfer import MESSAGE_HEADER_BYTES
from repro.elastic.plan import ElasticPlan
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.overload.config import OverloadConfig
from repro.runtime import REGISTRY, diff_aggregates, diff_results, make_workload


def count_records(flows: dict) -> int:
    return sum(len(batch) for flow in flows.values() for _stream, batch in flow)


def _reference(call, workload, flows):
    """The single-threaded oracle run: ``(output, wall seconds)``."""
    engine = REGISTRY.create("reference")
    start = time.perf_counter()
    output = call(engine.run, workload.build_query(), flows)
    return output, time.perf_counter() - start


@dataclass
class Check:
    """Outcome of one sample's output check."""

    problems: list
    oracle_wall_s: float


class ZipfAgg:
    """YSB windowed count under Zipf z=1.4 over 1M campaigns, Slash then UpPar."""

    name = "zipf-agg"
    nodes, threads = 2, 8
    records_per_thread = 40_000

    def generate(self, call, seed, scale):
        workload = call(
            make_workload, "ysb", seed=seed, zipf_z=1.4, key_range=1_000_000,
            records_per_thread=max(200, int(self.records_per_thread * scale)),
            batch_records=800,
        )
        return workload, call(workload.flows, self.nodes, self.threads)

    def build(self, call, workload, flows, seed):
        query = call(workload.build_query)
        return [
            (system, call(REGISTRY.create, system, self.nodes).run, (query, flows))
            for system in ("slash", "uppar")
        ]

    def check(self, call, workload, flows, results):
        oracle, wall = _reference(call, workload, flows)
        problems = [
            f"{label}: {diff.describe()}"
            for label, result in results
            if not (diff := diff_results(oracle, result)).ok
        ]
        return Check(problems, wall)


class SessionJoin:
    """NB11 session-window join on Slash, 4 nodes x 4 threads."""

    name = "session-join"
    nodes, threads = 4, 4
    records_per_thread = 2_000

    def generate(self, call, seed, scale):
        workload = call(
            make_workload, "nb11", seed=seed,
            records_per_thread=max(60, int(self.records_per_thread * scale)),
        )
        return workload, call(workload.flows, self.nodes, self.threads)

    def build(self, call, workload, flows, seed):
        engine = call(REGISTRY.create, "slash", self.nodes)
        return [("slash", engine.run, (call(workload.build_query), flows))]

    check = ZipfAgg.check


class RoTransfer:
    """Read-only transfer benches, Slash and UpPar, 10 threads, 64 KiB buffers."""

    name = "ro-transfer"
    threads = 10
    records_per_thread = 100_000

    def generate(self, call, seed, scale):
        workload = call(
            make_workload, "ro", seed=seed,
            records_per_thread=max(500, int(self.records_per_thread * scale)),
        )
        # The benches read workload.flow_for(0, thread); generate them here.
        return workload, call(workload.flows, 1, self.threads)

    def build(self, call, workload, flows, seed):
        return [
            (system,
             call(REGISTRY.transfer_bench, system, threads=self.threads,
                  buffer_bytes=64 * 1024).run,
             (workload,))
            for system in ("slash", "uppar")
        ]

    def check(self, call, workload, flows, results):
        oracle, wall = _reference(call, workload, flows)
        records = count_records(flows)
        wire = sum(batch.wire_bytes for f in flows.values() for _s, batch in f)
        problems = []
        for label, result in results:
            headers, leftover = divmod(result.payload_bytes - wire, MESSAGE_HEADER_BYTES)
            if result.records != records:
                problems.append(f"{label}: delivered {result.records} of {records} records")
            if leftover or not 0 < headers <= records:
                problems.append(
                    f"{label}: {result.payload_bytes} payload bytes is not the "
                    f"{wire} generated bytes plus whole message headers"
                )
            missing, extra, mismatched = diff_aggregates(oracle.aggregates, result.state)
            if missing or extra or mismatched:
                problems.append(
                    f"{label}: per-key counts differ from the reference "
                    f"({len(missing)} missing, {len(extra)} extra, "
                    f"{len(mismatched)} mismatched)"
                )
        return Check(problems, wall)


class PlanesArmed:
    """Sessionized multi-tenant traffic on Slash with every optional plane armed."""

    name = "planes-armed"
    nodes, threads = 3, 2
    records_per_thread = 60_000
    # The unpaced run's simulated horizon per record of per-thread input,
    # calibrated once at seed 1; the horizon grows linearly with the
    # input, so plan, pacing and SLO scale with it at every size.
    horizon_s_per_record = 1.92e-8
    # Offered load: 2x the sustainable per-thread rate, with a 3x flash crowd.
    rate_factor = 2.0
    # Half the p99 queueing delay the paced run reaches without shedding.
    slo_share_of_horizon = 0.19
    # The paced run lasts ~0.88 horizons.  Rescaling earlier (0.35) makes
    # some seeds never finish, and the nic-flap preset's 5%-bandwidth flap
    # for 0.2 horizons exhausts the retry budget on others and sets the
    # run's length by where it lands; see README.md, "Known defects".
    rescale_share_of_horizon = 0.7
    flap_factor, flap_share_of_horizon = 0.5, 0.1

    def generate(self, call, seed, scale):
        rpt = max(400, int(self.records_per_thread * scale))
        workload = call(
            make_workload, "sessions", seed=seed, records_per_thread=rpt,
            batch_records=max(25, rpt // 20), users=50_000, zipf_z=1.0,
            late_frac=0.05, late_by_ms=2_000, dup_frac=0.02,
        )
        return workload, call(workload.flows, self.nodes, self.threads)

    def build(self, call, workload, flows, seed):
        horizon = self.horizon_s_per_record * workload.records_per_thread
        engine = call(REGISTRY.create, "slash", self.nodes)
        # Instant and victim drawn from the seed exactly as the preset does.
        (drawn,) = call(FaultPlan.preset, "nic-flap", seed, self.nodes, horizon).events
        flap = call(
            FaultEvent, FaultKind.NIC_FLAP, drawn.at_s, drawn.target,
            duration_s=self.flap_share_of_horizon * horizon, factor=self.flap_factor,
        )
        call(
            engine.attach_faults, call(FaultPlan, events=(flap,), seed=seed),
            # The chaos suite's fault-handling tunables, scaled to the horizon.
            dict(
                detect_s=horizon * 0.02,
                watchdog_period_s=horizon * 0.01,
                rto_s=max(5e-6, horizon * 0.001),
                credit_timeout_s=max(2e-5, horizon * 0.005),
            ),
        )
        call(engine.attach_elastic, call(
            ElasticPlan, rescale_at=self.rescale_share_of_horizon * horizon,
            strategy="fluid", action="join", add_nodes=1,
        ))
        call(engine.attach_overload, call(
            OverloadConfig,
            slo_p99_ms=self.slo_share_of_horizon * horizon * 1e3,
            shed_policy="fair",
            ingest_rate_records_per_s=self.rate_factor / self.horizon_s_per_record,
            flash_at_frac=0.5, flash_magnitude=3.0, tenants=4, seed=seed,
            record_masks=True,
        ))
        return [("slash", engine.run, (call(workload.build_query), flows))]

    def check(self, call, workload, flows, results):
        (label, result), = results
        masks = result.extra["overload_keep_masks"]
        admitted = {
            (node, thread): [
                (stream, batch.select(masks[(node, thread, i)])
                 if (node, thread, i) in masks else batch)
                for i, (stream, batch) in enumerate(flow)
            ]
            for (node, thread), flow in flows.items()
        }
        oracle, wall = _reference(call, workload, admitted)
        problems = []
        diff = diff_results(oracle, result)
        if not diff.ok:
            problems.append(f"{label}: admitted-only oracle: {diff.describe()}")
        info = result.extra["overload"]
        generated = count_records(flows)
        if not info["offered"] == generated == info["admitted"] + info["shed"]:
            problems.append(
                f"{label}: offered {info['offered']}, generated {generated}, "
                f"admitted {info['admitted']} + shed {info['shed']}"
            )
        return Check(problems, wall)


WORKLOADS = {w.name: w for w in (ZipfAgg(), SessionJoin(), RoTransfer(), PlanesArmed())}
