"""repro — Fault-tolerant greedy routing in peer-to-peer systems.

A production-quality reproduction of *Fault-tolerant Routing in Peer-to-peer
Systems* (Aspnes, Diamadi, Shah; PODC 2002).  The library provides:

* ``repro.core`` — metric-space embedding, inverse power-law overlay graphs,
  greedy routing with failure recovery, failure models, the dynamic
  construction heuristic, and theoretical bounds.
* ``repro.simulation`` — workload generators (lookups, churn) and the
  link-latency model consumed by the round-based scenarios.
* ``repro.dht`` — the resource-location layer: a distributed hash table
  (put/get, replication) over the ``P2PNetwork`` membership/routing facade.
* ``repro.baselines`` — Chord, Kleinberg-grid, CAN, and Plaxton-style prefix
  routing baselines for comparison.
* ``repro.scenarios`` — the unified experiment API: declarative
  ``ScenarioSpec`` records, the ``@register_scenario`` registry, the single
  ``run(spec) -> RunResult`` entrypoint, and the parallel ``Sweep`` executor.
* ``repro.experiments`` — the paper's experiments, each one a registered
  scenario (Figures 5–7, Table 1, ablations, baseline comparison).

Quickstart
----------
>>> from repro.dht import DhtConfig, DistributedHashTable
>>> dht = DistributedHashTable(DhtConfig(space_size=1 << 10, seed=7))
>>> dht.join_many(range(0, 1 << 10, 8))
>>> dht.put("readme", "hello world", origin=0).ok
True
>>> dht.get("readme").value
'hello world'
"""

from repro.core import (
    ByzantineAwareRouter,
    ByzantineBehavior,
    ByzantineModel,
    DeterministicGraphBuilder,
    GreedyRouter,
    HeuristicConstruction,
    InverseDistanceReplacement,
    InversePowerLawDistribution,
    LineMetric,
    LinkFailureModel,
    MaintenanceDaemon,
    NodeFailureModel,
    OldestLinkReplacement,
    OverlayGraph,
    P2PNetwork,
    RandomGraphBuilder,
    RecoveryStrategy,
    RedundantRouter,
    RingMetric,
    RouteResult,
    RoutingMode,
    Table1Bounds,
    TorusMetric,
    build_heuristic_network,
    build_ideal_network,
    failure_sweep_levels,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "P2PNetwork",
    "OverlayGraph",
    "GreedyRouter",
    "RoutingMode",
    "RecoveryStrategy",
    "RouteResult",
    "RingMetric",
    "LineMetric",
    "TorusMetric",
    "InversePowerLawDistribution",
    "RandomGraphBuilder",
    "DeterministicGraphBuilder",
    "build_ideal_network",
    "build_heuristic_network",
    "HeuristicConstruction",
    "InverseDistanceReplacement",
    "OldestLinkReplacement",
    "MaintenanceDaemon",
    "LinkFailureModel",
    "NodeFailureModel",
    "ByzantineModel",
    "ByzantineBehavior",
    "ByzantineAwareRouter",
    "RedundantRouter",
    "Table1Bounds",
    "failure_sweep_levels",
]
