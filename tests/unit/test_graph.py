"""Unit tests for the overlay graph data structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric


@pytest.fixture
def graph() -> OverlayGraph:
    g = OverlayGraph(RingMetric(32))
    for label in range(0, 32, 4):
        g.add_node(label)
    g.wire_ring()
    return g


class TestNodeManagement:
    def test_add_node_idempotent(self, graph):
        before = len(graph)
        graph.add_node(0)
        assert len(graph) == before

    def test_add_node_outside_space_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_node(100)

    def test_add_node_takes_numpy_integers_as_ints(self, graph):
        node = graph.add_node(np.int64(3))
        assert type(node.label) is int
        assert graph.add_node(np.int32(3)) is node
        assert 3 in graph.labels() and all(type(label) is int for label in graph.labels())

    def test_add_node_rejects_bool(self, graph):
        with pytest.raises(ValueError):
            graph.add_node(True)

    def test_has_node(self, graph):
        assert graph.has_node(0)
        assert not graph.has_node(1)

    def test_node_lookup_missing_raises(self, graph):
        with pytest.raises(KeyError):
            graph.node(1)

    def test_remove_node_clears_links_to_it(self, graph):
        graph.add_long_link(0, 8)
        graph.remove_node(8)
        assert not graph.has_node(8)
        assert 8 not in graph.node(0).long_link_targets()

    def test_remove_node_clears_ring_pointers(self, graph):
        graph.remove_node(4)
        assert graph.node(0).right != 4
        assert graph.node(8).left != 4

    def test_labels_filters_alive(self, graph):
        graph.fail_node(0)
        assert 0 in graph.labels()
        assert 0 not in graph.labels(only_alive=True)


class TestLiveness:
    def test_fail_and_revive(self, graph):
        graph.fail_node(4)
        assert not graph.is_alive(4)
        graph.revive_node(4)
        assert graph.is_alive(4)

    def test_alive_count(self, graph):
        total = len(graph)
        graph.fail_node(0)
        graph.fail_node(4)
        assert graph.alive_count() == total - 2

    def test_is_alive_for_missing_node(self, graph):
        assert not graph.is_alive(3)


class TestLinks:
    def test_add_long_link_and_targets(self, graph):
        graph.add_long_link(0, 16)
        assert 16 in graph.node(0).long_link_targets()

    def test_self_link_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_long_link(0, 0)

    def test_remove_long_link(self, graph):
        graph.add_long_link(0, 16)
        assert graph.remove_long_link(0, 16)
        assert not graph.remove_long_link(0, 16)
        assert 16 not in graph.node(0).long_link_targets()

    def test_redirect_long_link(self, graph):
        graph.add_long_link(0, 16)
        assert graph.redirect_long_link(0, 16, 20)
        assert 20 in graph.node(0).long_link_targets()
        assert 16 not in graph.node(0).long_link_targets()

    def test_redirect_missing_link_returns_false(self, graph):
        assert not graph.redirect_long_link(0, 16, 20)

    def test_redirect_to_self_refused(self, graph):
        graph.add_long_link(0, 16)
        assert not graph.redirect_long_link(0, 16, 0)

    def test_creation_stamps_increase(self, graph):
        first = graph.add_long_link(0, 8)
        second = graph.add_long_link(0, 16)
        assert second.created_at > first.created_at

    def test_dead_links_filtered(self, graph):
        link = graph.add_long_link(0, 16)
        link.alive = False
        assert 16 not in graph.node(0).long_link_targets()
        assert 16 in graph.node(0).long_link_targets(only_alive=False)

    def test_neighbors_of_filters_dead_nodes(self, graph):
        graph.add_long_link(0, 16)
        graph.fail_node(16)
        assert 16 not in graph.neighbors_of(0)
        assert 16 in graph.neighbors_of(0, only_alive_nodes=False)

    def test_incoming_sources(self, graph):
        graph.add_long_link(0, 16)
        graph.add_long_link(8, 16)
        assert set(graph.incoming_sources(16)) == {0, 8}

    def test_incoming_sources_respect_link_liveness(self, graph):
        link = graph.add_long_link(0, 16)
        link.alive = False
        assert 0 not in graph.incoming_sources(16)
        assert 0 in graph.incoming_sources(16, only_alive_links=False)

    def test_neighbors_include_incoming(self, graph):
        graph.add_long_link(0, 16)
        neighbors_of_16 = graph.neighbors_of(16, include_incoming=True)
        assert 0 in neighbors_of_16
        assert 0 not in graph.neighbors_of(16, include_incoming=False)

    def test_redirect_updates_incoming_index(self, graph):
        graph.add_long_link(0, 16)
        graph.redirect_long_link(0, 16, 24)
        assert 0 not in graph.incoming_sources(16)
        assert 0 in graph.incoming_sources(24)

    def test_remove_node_updates_incoming_index(self, graph):
        graph.add_long_link(0, 16)
        graph.remove_node(0)
        assert 0 not in graph.incoming_sources(16)

    def test_remove_node_drops_dead_and_live_parallel_links_to_it(self, graph):
        graph.add_long_link(0, 16)
        graph.add_long_link(0, 8)
        graph.add_long_link(0, 16)
        assert graph.fail_long_link(0, 16)
        graph.remove_node(16)
        assert [link.target for link in graph.node(0).long_links] == [8]
        assert 16 not in graph._incoming
        assert graph.incoming_entries(8) == [(0, True)]


class TestRingWiring:
    def test_ring_wraps_on_ring_metric(self, graph):
        assert graph.node(0).left == 28
        assert graph.node(28).right == 0

    def test_single_node_ring(self):
        g = OverlayGraph(RingMetric(8))
        g.add_node(3)
        g.wire_ring()
        assert g.node(3).left is None and g.node(3).right is None

    def test_closest_live_vertex(self, graph):
        assert graph.closest_live_vertex(5) == 4
        graph.fail_node(4)
        assert graph.closest_live_vertex(5) in (8, 0)

    def test_closest_live_vertex_empty(self):
        g = OverlayGraph(RingMetric(8))
        assert g.closest_live_vertex(3) is None


class TestStatistics:
    def test_long_link_lengths_skip_failed_links(self, graph):
        graph.add_long_link(0, 8)
        link = graph.add_long_link(0, 16)
        link.alive = False
        assert len(graph.node(0).long_links) == 2
        assert graph.long_link_lengths() == [8]

    def test_long_link_lengths(self, graph):
        graph.add_long_link(0, 16)
        graph.add_long_link(0, 28)
        assert sorted(graph.long_link_lengths()) == [4, 16]

