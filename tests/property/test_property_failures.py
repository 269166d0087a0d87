"""Property-based tests for failure models and maintenance."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_ideal_network
from repro.core.failures import LinkFailureModel, NodeFailureModel
from repro.core.maintenance import MaintenanceDaemon
from repro.core.construction import HeuristicConstruction
from repro.core.metric import RingMetric


class TestFailureModelProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        level=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_node_failure_apply_repair_roundtrip(self, level, seed):
        graph = build_ideal_network(128, links_per_node=3, seed=seed).graph
        model = NodeFailureModel(level, seed=seed)
        summary = model.apply(graph)
        assert summary["failed_nodes"] == 128 - graph.alive_count()
        assert summary["failed_nodes"] == round(level * 128)
        model.repair(graph)
        assert graph.alive_count() == 128

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_link_failure_apply_repair_roundtrip(self, p, seed):
        graph = build_ideal_network(128, links_per_node=4, seed=seed).graph
        total_before = len(graph.long_link_lengths())
        model = LinkFailureModel(p, seed=seed)
        summary = model.apply(graph)
        assert summary["failed_links"] == total_before - len(graph.long_link_lengths())
        model.repair(graph)
        assert len(graph.long_link_lengths()) == total_before


class TestMaintenanceProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        victims=st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=20),
    )
    def test_after_repair_no_links_point_at_dead_nodes(self, seed, victims):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=4, seed=seed)
        construction.add_points(list(range(64)))
        graph = construction.graph
        for victim in victims:
            graph.fail_node(victim)
        daemon = MaintenanceDaemon(construction)
        daemon.repair_all_batched()
        for node in graph.nodes():
            if not node.alive:
                continue
            for target in node.long_link_targets():
                assert graph.is_alive(target)

