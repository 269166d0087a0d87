"""Core library: the paper's primary contribution.

This package contains the metric-space embedding, link distributions, overlay
graph, greedy routing with failure recovery, failure models, the Section-5
dynamic construction heuristic, self-maintenance, the theoretical bounds of
Table 1, and the :class:`~repro.core.network.P2PNetwork` facade tying them
together.
"""

from repro.core.bounds import Table1Bounds
from repro.core.builder import (
    BuildResult,
    DeterministicGraphBuilder,
    RandomGraphBuilder,
    build_ideal_network,
)
from repro.core.byzantine import ByzantineAwareRouter, RedundantRouter
from repro.core.construction import (
    HeuristicConstruction,
    InverseDistanceReplacement,
    NeverReplace,
    OldestLinkReplacement,
    build_heuristic_network,
)
from repro.core.distributions import (
    DeterministicBaseBOffsets,
    InversePowerLawDistribution,
    KleinbergGridDistribution,
    UniformLinkDistribution,
    harmonic_number,
)
from repro.core.failures import (
    ByzantineBehavior,
    ByzantineModel,
    LinkFailureModel,
    NodeFailureModel,
    TargetedNodeFailureModel,
    failure_sweep_levels,
)
from repro.core.graph import LongLink, OverlayGraph, OverlayNode
from repro.core.identifiers import (
    FibonacciHasher,
    KeyHasher,
    Sha256Hasher,
)
from repro.core.maintenance import MaintenanceDaemon, MaintenanceReport, prune_dead_links
from repro.core.metric import LineMetric, MetricSpace, RingMetric, TorusMetric
from repro.core.network import NetworkStatistics, P2PNetwork
from repro.core.routing import (
    FailureReason,
    GreedyRouter,
    RecoveryStrategy,
    RouteResult,
    RoutingMode,
)

__all__ = [
    # metric spaces and identifiers
    "MetricSpace",
    "LineMetric",
    "RingMetric",
    "TorusMetric",
    "KeyHasher",
    "Sha256Hasher",
    "FibonacciHasher",
    # distributions
    "InversePowerLawDistribution",
    "UniformLinkDistribution",
    "DeterministicBaseBOffsets",
    "KleinbergGridDistribution",
    "harmonic_number",
    # graph and builders
    "OverlayGraph",
    "OverlayNode",
    "LongLink",
    "BuildResult",
    "RandomGraphBuilder",
    "DeterministicGraphBuilder",
    "build_ideal_network",
    # routing
    "GreedyRouter",
    "RoutingMode",
    "RecoveryStrategy",
    "FailureReason",
    "RouteResult",
    # failures and Byzantine extensions
    "LinkFailureModel",
    "NodeFailureModel",
    "TargetedNodeFailureModel",
    "ByzantineModel",
    "ByzantineBehavior",
    "ByzantineAwareRouter",
    "RedundantRouter",
    "failure_sweep_levels",
    # construction and maintenance
    "HeuristicConstruction",
    "InverseDistanceReplacement",
    "OldestLinkReplacement",
    "NeverReplace",
    "build_heuristic_network",
    "MaintenanceDaemon",
    "MaintenanceReport",
    "prune_dead_links",
    # bounds
    "Table1Bounds",
    # facade
    "P2PNetwork",
    "NetworkStatistics",
]
