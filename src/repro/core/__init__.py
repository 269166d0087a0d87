"""Core library: the paper's primary contribution.

This package contains the metric-space embedding, link distributions, overlay
graph, greedy routing with failure recovery, failure models, the Section-5
dynamic construction heuristic, self-maintenance, the theoretical bounds of
Table 1, and the :class:`~repro.core.network.P2PNetwork` facade tying them
together.
"""

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
    harmonic_number,
)
from repro.core.failures import (
    ByzantineBehavior,
    ByzantineModel,
    LinkFailureModel,
    NodeFailureModel,
    failure_sweep_levels,
)
from repro.core.graph import LongLink, OverlayGraph, OverlayNode
from repro.core.maintenance import MaintenanceDaemon, MaintenanceReport
from repro.core.metric import MetricSpace, RingMetric, TorusMetric
from repro.core.network import P2PNetwork
from repro.core.routing import (
    FailureReason,
    GreedyRouter,
    RecoveryStrategy,
    RouteResult,
)

__all__ = [
    # metric spaces
    "MetricSpace",
    "RingMetric",
    "TorusMetric",
    # distributions
    "InversePowerLawDistribution",
    "DeterministicBaseBOffsets",
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
    "RecoveryStrategy",
    "FailureReason",
    "RouteResult",
    # failures and Byzantine extensions
    "LinkFailureModel",
    "NodeFailureModel",
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
    # facade
    "P2PNetwork",
]
