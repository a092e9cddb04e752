"""The engine registry: one name → factory table for every system.

Each entry carries the engine's capability flags, so grids and the
chaos/sanitize suites can gate features (`fault injection on
LightSaber`) *before* a run starts, and the CLI can suggest close names
on typos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.baselines.flink import FlinkEngine
from repro.baselines.lightsaber import LightSaberEngine
from repro.baselines.reference import SequentialReference
from repro.baselines.uppar import UpParEngine
from repro.common.config import paper_cluster
from repro.common.errors import CapabilityError, ConfigError
from repro.common.suggest import unknown_name_message
from repro.core.engine import SlashEngine
from repro.core.system import CAP_TRANSFER_BENCH

# Epoch length for simulation-scale end-to-end runs; keeps the paper's
# roughly 1/16-of-per-thread-input proportion at scaled volumes.
BENCH_EPOCH_BYTES = 128 * 1024


@dataclass(frozen=True)
class EngineSpec:
    """One registry entry: how to build an engine, and what it can do."""

    name: str
    factory: Callable[..., Any]
    capabilities: frozenset
    description: str
    #: Optional raw-transfer micro-bench constructor (Fig. 8/9 drill-downs).
    transfer_factory: Optional[Callable[..., Any]] = None


class EngineRegistry:
    """Name → :class:`EngineSpec`, with capability gating and suggestions."""

    def __init__(self):
        self._specs: dict[str, EngineSpec] = {}

    def register(self, spec: EngineSpec) -> EngineSpec:
        if spec.name in self._specs:
            raise ConfigError(f"engine {spec.name!r} registered twice")
        self._specs[spec.name] = spec
        return spec

    def names(self) -> tuple[str, ...]:
        """Registered engine names, in registration order."""
        return tuple(self._specs)

    def spec(self, name: str) -> EngineSpec:
        """Look up one entry; unknown names get a did-you-mean error."""
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigError(
                unknown_name_message("system", name, self.names())
            ) from None

    def require(self, name: str, *capabilities: str) -> EngineSpec:
        """Like :meth:`spec`, but also demand capability flags up front."""
        spec = self.spec(name)
        missing = set(capabilities) - spec.capabilities
        if missing:
            raise CapabilityError(
                f"engine {name!r} lacks required capability "
                f"{sorted(missing)}; has: {sorted(spec.capabilities)}"
            )
        return spec

    def create(self, name: str, nodes: int = 1, **overrides: Any):
        """Construct engine ``name`` for an ``nodes``-node deployment."""
        return self.spec(name).factory(nodes, **overrides)

    def transfer_bench(self, name: str, **bench_kwargs: Any):
        """Construct the engine's raw-transfer micro-benchmark."""
        spec = self.require(name, CAP_TRANSFER_BENCH)
        if spec.transfer_factory is None:
            raise CapabilityError(
                f"engine {name!r} has no transfer benchmark registered"
            )
        return spec.transfer_factory(**bench_kwargs)


def _make_slash(nodes: int, **overrides: Any) -> SlashEngine:
    return SlashEngine(
        cluster_config=paper_cluster(max(nodes, 1)),
        epoch_bytes=overrides.pop("epoch_bytes", BENCH_EPOCH_BYTES),
        **overrides,
    )


def _make_uppar(nodes: int, **overrides: Any) -> UpParEngine:
    return UpParEngine(cluster_config=paper_cluster(max(nodes, 1)), **overrides)


def _make_flink(nodes: int, **overrides: Any) -> FlinkEngine:
    return FlinkEngine(cluster_config=paper_cluster(max(nodes, 1)), **overrides)


def _make_lightsaber(nodes: int, **overrides: Any) -> LightSaberEngine:
    # Scale-up engine: always one (big) node, whatever the sweep asks.
    return LightSaberEngine(cluster_config=paper_cluster(1), **overrides)


def _make_reference(nodes: int, **overrides: Any) -> SequentialReference:
    return SequentialReference(**overrides)


def _slash_transfer(**kwargs: Any):
    from repro.baselines.transfer import SlashTransferBench

    return SlashTransferBench(**kwargs)


def _uppar_transfer(**kwargs: Any):
    from repro.baselines.transfer import UpParTransferBench

    return UpParTransferBench(**kwargs)


#: The process-wide registry.  Registration order fixes the display
#: order of ``SYSTEMS`` sweeps (benchmark systems first, oracle last).
REGISTRY = EngineRegistry()
REGISTRY.register(
    EngineSpec(
        name="flink",
        factory=_make_flink,
        capabilities=FlinkEngine.capabilities,
        description="scale-out baseline over IPoIB (TCP-shaped) channels",
    )
)
REGISTRY.register(
    EngineSpec(
        name="uppar",
        factory=_make_uppar,
        capabilities=UpParEngine.capabilities,
        description="upfront-partitioning baseline over RDMA channels",
        transfer_factory=_uppar_transfer,
    )
)
REGISTRY.register(
    EngineSpec(
        name="slash",
        factory=_make_slash,
        capabilities=SlashEngine.capabilities,
        description="the paper's engine: shared state over one-sided RDMA",
        transfer_factory=_slash_transfer,
    )
)
REGISTRY.register(
    EngineSpec(
        name="lightsaber",
        factory=_make_lightsaber,
        capabilities=LightSaberEngine.capabilities,
        description="single-node scale-up SPE (NUMA-aware, no network)",
    )
)
REGISTRY.register(
    EngineSpec(
        name="reference",
        factory=_make_reference,
        capabilities=SequentialReference.capabilities,
        description="sequential ground-truth oracle (property P2)",
    )
)
