"""Unit tests for the Section-5 dynamic construction heuristic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construction import (
    HeuristicConstruction,
    InverseDistanceReplacement,
    NeverReplace,
    OldestLinkReplacement,
    build_heuristic_network,
)
from repro.core.metric import PrefixMetric, RingMetric, TorusMetric
from repro.core.routing import GreedyRouter


class TestArrival:
    def test_single_point(self):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=3, seed=0)
        construction.add_point(10)
        node = construction.graph.node(10)
        assert node.left is None and node.right is None

    def test_two_points_become_ring_neighbors(self):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=3, seed=0)
        construction.add_point(10)
        construction.add_point(40)
        assert construction.graph.node(10).right == 40
        assert construction.graph.node(10).left == 40
        assert construction.graph.node(40).right == 10

    def test_ring_order_maintained(self):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=2, seed=0)
        for label in [30, 10, 50, 20, 40]:
            construction.add_point(label)
        assert construction.graph.node(20).left == 10
        assert construction.graph.node(20).right == 30
        assert construction.graph.node(50).right == 10  # wraps around

    @pytest.mark.parametrize(
        "space", [PrefixMetric(2, 4), TorusMetric(4)], ids=["PrefixMetric", "TorusMetric"]
    )
    def test_non_ring_space_refused(self, space):
        # The heuristic's distances are ring arithmetic; any other space is
        # refused up front rather than built with the wrong distances.
        with pytest.raises(TypeError, match=f"requires a RingMetric, got {type(space).__name__}"):
            HeuristicConstruction(space=space, links_per_node=2, seed=0)

    def test_duplicate_arrival_rejected(self):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=2, seed=0)
        construction.add_point(5)
        with pytest.raises(ValueError):
            construction.add_point(5)

    def test_long_links_created_for_later_arrivals(self):
        construction = HeuristicConstruction(space=RingMetric(256), links_per_node=4, seed=1)
        construction.add_points(list(range(0, 256, 4)))
        total_long = len(construction.graph.long_link_lengths())
        assert total_long > 0
        # Later arrivals should have close to links_per_node outgoing links.
        late_node = construction.graph.node(252)
        assert len(late_node.long_links) >= 1

    def test_no_self_links_and_targets_exist(self):
        construction = HeuristicConstruction(space=RingMetric(128), links_per_node=3, seed=2)
        construction.add_points(list(range(0, 128, 2)))
        for node in construction.graph.nodes():
            for target in node.long_link_targets():
                assert target != node.label
                assert construction.graph.has_node(target)

    def test_incoming_links_are_solicited(self):
        construction = HeuristicConstruction(space=RingMetric(256), links_per_node=4, seed=3)
        construction.add_points(list(range(0, 256, 2)))
        graph = construction.graph
        in_degrees = {label: len(graph.incoming_sources(label)) for label in graph.labels()}
        # Early arrivals would have in-degree 0 without solicitation; with the
        # Section-5 heuristic the newest arrivals also receive incoming links.
        newest = 254
        total_in = sum(in_degrees.values())
        assert total_in > 0
        assert in_degrees[newest] >= 0  # present in the accounting


class TestDeparture:
    def test_remove_point_restitches_ring(self):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=2, seed=0)
        construction.add_points([10, 20, 30, 40])
        construction.remove_point(20)
        assert construction.graph.node(10).right == 30
        assert construction.graph.node(30).left == 10

    def test_remove_point_returns_affected_holders(self):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=2, seed=0)
        construction.add_points([0, 16, 32, 48])
        construction.graph.add_long_link(0, 32)
        affected = construction.remove_point(32)
        assert 0 in affected
        assert not construction.graph.has_node(32)

    def test_remove_unknown_point_is_noop(self):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=2, seed=0)
        construction.add_points([1, 2])
        assert construction.remove_point(50) == []

    def test_regenerate_link(self):
        construction = HeuristicConstruction(space=RingMetric(128), links_per_node=2, seed=1)
        construction.add_points(list(range(0, 128, 8)))
        before = len(construction.graph.node(0).long_links)
        target = construction.regenerate_link(0)
        after = len(construction.graph.node(0).long_links)
        if target is not None:
            assert after == before + 1
            assert construction.graph.has_node(target)


class TestReplacementPolicies:
    def _graph_with_links(self):
        construction = HeuristicConstruction(space=RingMetric(256), links_per_node=3, seed=5)
        construction.add_points(list(range(0, 256, 4)))
        return construction

    def test_never_replace_declines(self):
        construction = self._graph_with_links()
        policy = NeverReplace()
        rng = np.random.default_rng(0)
        assert policy.choose_replacements(construction.graph, [0, 4], 128, rng) == [None, None]

    @staticmethod
    def _holder_with_links(construction):
        """Return a node label that owns at least two live long links."""
        for node in construction.graph.nodes():
            if sum(1 for link in node.long_links if link.alive) >= 2:
                return node.label
        pytest.fail("expected at least one node with two live long links")

    def test_inverse_distance_eventually_accepts(self):
        construction = self._graph_with_links()
        holder = self._holder_with_links(construction)
        newcomer = (holder + 4) % 256
        policy = InverseDistanceReplacement()
        rng = np.random.default_rng(0)
        decisions = [
            policy.choose_replacements(construction.graph, [holder], newcomer, rng)[0]
            for _ in range(200)
        ]
        assert any(decision is not None for decision in decisions)

    def test_inverse_distance_victim_is_existing_target(self):
        construction = self._graph_with_links()
        holder = self._holder_with_links(construction)
        newcomer = (holder + 8) % 256
        policy = InverseDistanceReplacement()
        rng = np.random.default_rng(1)
        targets = set(construction.graph.node(holder).long_link_targets())
        for _ in range(100):
            [victim] = policy.choose_replacements(construction.graph, [holder], newcomer, rng)
            if victim is not None:
                assert victim in targets
                break

    def test_oldest_link_replacement_picks_oldest(self):
        construction = self._graph_with_links()
        policy = OldestLinkReplacement()
        rng = np.random.default_rng(2)
        holder = self._holder_with_links(construction)
        newcomer = (holder + 8) % 256
        links = [link for link in construction.graph.node(holder).long_links if link.alive]
        oldest_target = min(links, key=lambda link: link.created_at).target
        for _ in range(300):
            [victim] = policy.choose_replacements(construction.graph, [holder], newcomer, rng)
            if victim is not None:
                assert victim == oldest_target
                break
        else:
            pytest.fail("oldest-link policy never accepted a redirect in 300 tries")

    def test_policy_with_no_links_declines(self):
        construction = HeuristicConstruction(space=RingMetric(64), links_per_node=2, seed=0)
        construction.add_points([0, 32])
        construction.graph.node(0).long_links.clear()
        rng = np.random.default_rng(0)
        assert InverseDistanceReplacement().choose_replacements(
            construction.graph, [0], 32, rng
        ) == [None]


class TestBuildHeuristicNetwork:
    def test_full_population(self):
        construction = build_heuristic_network(n=128, links_per_node=4, seed=0)
        assert len(construction.graph) == 128

    def test_partial_population(self):
        construction = build_heuristic_network(n=256, occupied=64, links_per_node=4, seed=0)
        assert len(construction.graph) == 64

    def test_default_links_per_node(self):
        construction = build_heuristic_network(n=64, seed=0)
        assert construction.links_per_node == 6

    def test_invalid_occupied(self):
        with pytest.raises(ValueError):
            build_heuristic_network(n=64, occupied=1)
        with pytest.raises(ValueError):
            build_heuristic_network(n=64, occupied=65)

    def test_resulting_network_routes(self):
        construction = build_heuristic_network(n=256, links_per_node=6, seed=3)
        router = GreedyRouter(construction.graph)
        result = router.route(0, 130)
        assert result.success
        assert result.hops <= 130

    def test_link_lengths_skew_short(self):
        construction = build_heuristic_network(n=512, links_per_node=6, seed=4)
        lengths = construction.graph.long_link_lengths()
        short = sum(1 for length in lengths if length <= 8)
        long = sum(1 for length in lengths if length > 128)
        assert short > long

    def test_reproducible(self):
        first = build_heuristic_network(n=128, links_per_node=4, seed=9)
        second = build_heuristic_network(n=128, links_per_node=4, seed=9)
        for label in range(128):
            assert (
                first.graph.node(label).long_link_targets()
                == second.graph.node(label).long_link_targets()
            )
