"""repro — a reproduction of "Rethinking Stateful Stream Processing with
RDMA" (Del Monte et al., SIGMOD 2022).

The package implements the paper's system, **Slash**, and everything it
is evaluated against, on top of a deterministic discrete-event
simulation of a rack-scale RDMA cluster:

* :mod:`repro.simnet` — the simulated rack (event kernel, NICs, links,
  caches, DRAM, hardware-counter accounting);
* :mod:`repro.rdma` / :mod:`repro.channel` — verbs and the credit-based
  RDMA channel protocol (paper Sec. 6);
* :mod:`repro.state` — the Slash State Backend: CRDTs, vector clocks,
  hybrid-log stores, epoch coherence (paper Sec. 7);
* :mod:`repro.core` — queries, windows, pipelines, the coroutine
  scheduler, and the distributed Slash executor/engine (paper Secs. 4-5);
* :mod:`repro.baselines` — RDMA UpPar, a Flink-like engine on IPoIB, a
  LightSaber-like scale-up engine, and the sequential reference;
* :mod:`repro.workloads` — YSB, NexMark (NB7/NB8/NB11), Cluster
  Monitoring, and the Read-Only drill-down benchmark;
* :mod:`repro.grid` — every paper table/figure and acceptance suite as a
  declarative sweep grid;
* :mod:`repro.harness` — the ``python -m repro`` CLI that runs them.

Quick start::

    from repro import SlashEngine
    from repro.workloads import YsbWorkload

    workload = YsbWorkload(records_per_thread=5000)
    engine = SlashEngine()
    result = engine.run(workload.build_query(), workload.flows(4, 4))
    print(result.throughput_records_per_s)
"""

from repro.common.config import ClusterConfig, CpuConfig, NicConfig, NodeConfig, paper_cluster
from repro.common.errors import (
    ChannelResetError,
    ConfigError,
    FaultError,
    ProtocolError,
    QueryError,
    RecoveryError,
    ReproError,
    SimulationError,
    StateError,
)
from repro.core.engine import RunResult, SlashEngine
from repro.core.query import Query, StreamBuilder
from repro.core.records import RecordBatch, Schema
from repro.core.windows import SessionWindows, SlidingWindow, TumblingWindow

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ClusterConfig",
    "CpuConfig",
    "NicConfig",
    "NodeConfig",
    "paper_cluster",
    "ReproError",
    "ConfigError",
    "SimulationError",
    "ProtocolError",
    "StateError",
    "QueryError",
    "FaultError",
    "RecoveryError",
    "ChannelResetError",
    "SlashEngine",
    "RunResult",
    "Query",
    "StreamBuilder",
    "Schema",
    "RecordBatch",
    "TumblingWindow",
    "SlidingWindow",
    "SessionWindows",
]
