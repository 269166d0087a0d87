"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.core.builder import build_ideal_network
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric


@pytest.fixture
def ring_64() -> RingMetric:
    """A small ring metric space."""
    return RingMetric(64)


@pytest.fixture
def small_graph(ring_64: RingMetric) -> OverlayGraph:
    """A fully populated 64-point ring with only immediate-neighbour links."""
    graph = OverlayGraph(ring_64)
    for label in range(64):
        graph.add_node(label)
    graph.wire_ring()
    return graph


@pytest.fixture
def ideal_network_256():
    """A 256-node ideal network with lg n long links per node (seeded)."""
    return build_ideal_network(256, seed=42)


@pytest.fixture
def ideal_network_1024():
    """A 1024-node ideal network with lg n long links per node (seeded)."""
    return build_ideal_network(1024, seed=7)
