"""repro — Fault-tolerant greedy routing in peer-to-peer systems.

A production-quality reproduction of *Fault-tolerant Routing in Peer-to-peer
Systems* (Aspnes, Diamadi, Shah; PODC 2002).  The library provides:

* ``repro.core`` — metric-space embedding, inverse power-law overlay graphs,
  greedy routing with failure recovery, failure models, the dynamic
  construction heuristic, and theoretical bounds.
* ``repro.simulation`` — workload generators (lookups, churn) and the
  link-latency model consumed by the round-based scenarios.
* ``repro.baselines`` — Chord, Kleinberg-grid, CAN, and Plaxton-style prefix
  routing baselines for comparison.
* ``repro.scenarios`` — the unified experiment API: declarative
  ``ScenarioSpec`` records, the ``@register_scenario`` registry, the single
  ``run(spec) -> RunResult`` entrypoint, and the parallel ``Sweep`` executor.
* ``repro.experiments`` — the paper's experiments, each one a registered
  scenario (Figures 5–7, Table 1, ablations, baseline comparison).

Quickstart
----------
Nodes join through the Section-5 heuristic, 30 % of them crash, greedy
routing with backtracking still delivers between survivors, and a repair
pass excises the crashed nodes:

>>> from repro import P2PNetwork, RecoveryStrategy
>>> network = P2PNetwork(1 << 10, recovery=RecoveryStrategy.BACKTRACK, seed=7)
>>> network.join_many(range(0, 1 << 10, 8))
>>> len(network.members())
128
>>> network.route(0, 512).success
True
>>> crashed = network.fail_fraction(0.3, seed=1)
>>> len(crashed)
38
>>> survivors = network.members()
>>> network.route(survivors[0], survivors[-1]).success
True
>>> network.repair()
>>> len(network.members())
90
>>> network.route(survivors[0], survivors[-1]).success
True
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
    "RecoveryStrategy",
    "RouteResult",
    "RingMetric",
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
    "failure_sweep_levels",
]
