"""Seed-reproducible random scenarios for the differential oracle.

A :class:`Scenario` is a plain, JSON-round-trippable description of one
randomized end-to-end check: which workload (query plan + generator
parameters), at which cluster scale, with which channel/epoch knobs, and
optionally under which fault preset.  :func:`generate_scenario` draws one
deterministically from ``(seed, index)`` via :class:`~repro.common.rng.RngTree`,
so ``python -m repro run sanitize --set scenarios=N --axis seed=S``
always replays the same N scenarios; :func:`run_scenario` executes one
with sanitizers on and differentially compares Slash against the
sequential reference oracle and the partitioned UpPar baseline.  Engines
come from the :mod:`repro.runtime` registry and are armed through the
generic ``attach_sanitizer``/``attach_faults`` hooks, so UpPar runs
under the same invariant checkers as Slash.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Optional

from repro.common.errors import ConfigError, ReproError
from repro.common.rng import RngTree

#: Workloads the generator draws from.  The join workloads (nb8, nb11)
#: never get a fault plan: crash recovery deliberately rejects joins and
#: session windows (FaultInjector.register raises), and the chaos
#: invariants are defined over windowed aggregates.
AGG_WORKLOADS = ("ysb", "cm", "nb7")
JOIN_WORKLOADS = ("nb8", "nb11")
SCENARIO_WORKLOADS = AGG_WORKLOADS + JOIN_WORKLOADS

#: Which generator kwarg bounds the key space of each workload.
_KEYSPACE_PARAM = {
    "ysb": "key_range",
    "cm": "jobs",
    "nb7": "key_range",
    "nb8": "sellers",
    "nb11": "sellers",
}

_EPOCH_CHOICES = (8 * 1024, 32 * 1024, 128 * 1024)
_BATCH_CHOICES = (32, 64, 128)
_CREDIT_CHOICES = (4, 8)


@dataclass(frozen=True)
class Scenario:
    """One randomized differential check, fully described by plain data."""

    workload: str
    records: int
    batch: int
    keyspace: int
    nodes: int
    threads: int
    epoch_bytes: int
    credits: int
    workload_seed: int
    fault: Optional[str] = None
    fault_seed: int = 0
    #: Shedding policy to arm the overload plane with (unpaced, so the
    #: admission hook audits every batch without shedding anything and
    #: the differential comparison stays exact); ``None`` = no overload.
    overload: Optional[str] = None
    #: Provenance: the (seed, index) the scenario was drawn from, or
    #: (-1, -1) for hand-built / shrunk scenarios.
    seed: int = -1
    index: int = -1

    def label(self) -> str:
        fault = f" fault={self.fault}" if self.fault else ""
        overload = f" overload={self.overload}" if self.overload else ""
        return (
            f"{self.workload} x{self.records} (batch {self.batch}, "
            f"keys {self.keyspace}) on {self.nodes}x{self.threads}, "
            f"epoch {self.epoch_bytes // 1024}K, credits {self.credits}"
            f"{fault}{overload}"
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"replay is not a scenario JSON: {exc}") from None
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**data)

    def repro_command(self) -> str:
        """A copy-pasteable command that re-runs exactly this scenario."""
        return f"python -m repro run sanitize --set replay='{self.to_json()}'"

    def workload_overrides(self) -> dict[str, Any]:
        return {
            "records_per_thread": self.records,
            "batch_records": self.batch,
            "seed": self.workload_seed,
            _KEYSPACE_PARAM[self.workload]: self.keyspace,
        }


def generate_scenario(seed: int, index: int) -> Scenario:
    """Draw scenario ``index`` of the stream derived from ``seed``.

    Each index gets an independent generator
    (``RngTree(seed).generator("sanitize", index)``), so scenarios can
    be generated out of order or in parallel without changing any draw.
    """
    rng = RngTree(seed).generator("sanitize", index)
    workload = str(rng.choice(list(SCENARIO_WORKLOADS)))
    records = int(rng.integers(150, 501))
    batch = int(rng.choice(_BATCH_CHOICES))
    # Small key spaces force cross-partition contention (every executor
    # helps on most partitions); larger ones exercise sparse deltas.
    keyspace = int(rng.integers(8, 200))
    nodes = int(rng.integers(2, 5))
    threads = int(rng.integers(2, 4))  # UpPar needs >= 2 threads/node
    epoch_bytes = int(rng.choice(_EPOCH_CHOICES))
    credits = int(rng.choice(_CREDIT_CHOICES))
    workload_seed = int(rng.integers(0, 2**31))
    fault: Optional[str] = None
    fault_seed = 0
    if workload in AGG_WORKLOADS and rng.random() < 0.5:
        from repro.faults.plan import MULTI_CRASH_PRESETS, PRESETS

        # Multi-crash presets (cascade, buddy-crash) need a third
        # executor to survive; keep them out of 2-node scenarios so the
        # shrinker never has to learn that constraint.
        candidates = [
            p for p in PRESETS
            if nodes >= 3 or p not in MULTI_CRASH_PRESETS
        ]
        fault = str(rng.choice(candidates))
        fault_seed = int(rng.integers(0, 2**31))
    overload: Optional[str] = None
    if rng.random() < 0.3:
        from repro.core.system import SHED_POLICIES

        overload = str(rng.choice(list(SHED_POLICIES)))
    return Scenario(
        workload=workload, records=records, batch=batch, keyspace=keyspace,
        nodes=nodes, threads=threads, epoch_bytes=epoch_bytes,
        credits=credits, workload_seed=workload_seed,
        fault=fault, fault_seed=fault_seed, overload=overload,
        seed=seed, index=index,
    )


@dataclass
class ScenarioOutcome:
    """What one scenario run found."""

    scenario: Scenario
    failures: list = field(default_factory=list)
    #: Sanitizer check counts from the (last) sanitized Slash run —
    #: proof the invariant hooks actually fired.
    checks: dict = field(default_factory=dict)
    horizon_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _compare(kind: str, failures: list, expected, actual) -> None:
    """Append a failure line if two result sets differ."""
    from repro.runtime.oracle import diff_results

    diff = diff_results(expected, actual)
    if not diff.ok:
        failures.append(f"{kind}: {diff.describe()}")


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Execute one scenario: sanitized Slash vs oracle vs baseline.

    Never raises for a *finding*: invariant violations and oracle
    mismatches come back as ``outcome.failures`` lines so the harness
    can count, report, and shrink them.  (Programming errors in the
    harness itself still propagate.)
    """
    from repro.runtime import REGISTRY, make_workload
    from repro.sanitizer.invariants import InvariantViolation

    outcome = ScenarioOutcome(scenario)
    workload = make_workload(scenario.workload, **scenario.workload_overrides())
    query = workload.build_query()
    flows = workload.flows(scenario.nodes, scenario.threads)

    oracle = REGISTRY.create("reference").run(query, flows)

    # Sanitized fail-free Slash run: every invariant checker armed.
    try:
        engine = REGISTRY.create(
            "slash", scenario.nodes,
            credits=scenario.credits, epoch_bytes=scenario.epoch_bytes,
        ).attach_sanitizer()
        if scenario.overload is not None:
            from repro.overload.config import OverloadConfig

            # Unpaced admission with an unreachable SLO: nothing sheds,
            # so the differential comparison stays exact, but every
            # batch crosses the admission hook — arming the
            # backpressure-conservation invariant per batch and the
            # end-of-run no-silent-drop audit.
            engine.attach_overload(OverloadConfig(
                shed_policy=scenario.overload,
                ingest_rate_records_per_s=None,
                slo_p99_ms=1e9,
                seed=scenario.workload_seed,
            ))
        slash = engine.run(query, flows)
    except InvariantViolation as violation:
        outcome.failures.append(f"invariant: {violation}")
        return outcome
    except ReproError as exc:
        outcome.failures.append(f"slash run failed: {type(exc).__name__}: {exc}")
        return outcome
    outcome.checks = dict(slash.extra.get("sanitizer_checks", {}))
    outcome.horizon_s = slash.sim_seconds
    _compare("slash vs reference oracle", outcome.failures, oracle, slash)

    # Partitioned baseline: UpPar re-partitions instead of sharing state,
    # so agreement here rules out bugs the two architectures share with
    # neither the oracle nor each other.  Sanitized through the same
    # generic hook as Slash — its channels feed the same checkers.
    try:
        uppar = (
            REGISTRY.create("uppar", scenario.nodes)
            .attach_sanitizer()
            .run(query, flows)
        )
    except InvariantViolation as violation:
        outcome.failures.append(f"invariant (uppar): {violation}")
        return outcome
    except ReproError as exc:
        outcome.failures.append(f"uppar run failed: {type(exc).__name__}: {exc}")
        return outcome
    _compare("uppar baseline vs reference oracle", outcome.failures, oracle, uppar)

    if scenario.fault is not None:
        from repro.faults.plan import FaultPlan

        horizon = slash.sim_seconds
        try:
            plan = FaultPlan.preset(
                scenario.fault, scenario.fault_seed, scenario.nodes, horizon
            )
        except ReproError as exc:
            # A preset that cannot be built at this shape (e.g. a
            # multi-crash preset after the shrinker removed a node) is a
            # finding about the scenario, not a harness crash.
            outcome.failures.append(
                f"fault preset {scenario.fault!r} invalid at this shape: {exc}"
            )
            return outcome
        # Same horizon-proportional tunables the chaos harness uses, so
        # detection and retransmission operate at simulation scale.
        overrides = dict(
            detect_s=horizon * 0.02,
            watchdog_period_s=horizon * 0.01,
            rto_s=max(5e-6, horizon * 0.001),
            credit_timeout_s=max(2e-5, horizon * 0.005),
        )
        try:
            faulted = (
                REGISTRY.create(
                    "slash", scenario.nodes,
                    credits=scenario.credits, epoch_bytes=scenario.epoch_bytes,
                )
                .attach_sanitizer()
                .attach_faults(plan, overrides)
                .run(query, flows)
            )
        except InvariantViolation as violation:
            outcome.failures.append(f"invariant (under {scenario.fault}): {violation}")
            return outcome
        except ReproError as exc:
            outcome.failures.append(
                f"faulted slash run failed ({scenario.fault}): "
                f"{type(exc).__name__}: {exc}"
            )
            return outcome
        outcome.checks = dict(faulted.extra.get("sanitizer_checks", {}))
        _compare(
            f"slash under {scenario.fault} vs reference oracle",
            outcome.failures, oracle, faulted,
        )
    return outcome


def scenario_without_fault(scenario: Scenario) -> Scenario:
    """The same scenario with its fault plan removed (shrinking step)."""
    return replace(scenario, fault=None, fault_seed=0)


def scenario_without_overload(scenario: Scenario) -> Scenario:
    """The same scenario with its overload plane removed (shrinking step)."""
    return replace(scenario, overload=None)
