"""Unit tests for the greedy router and its recovery strategies."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.builder import build_ideal_network
from repro.core.byzantine import ByzantineAwareRouter
from repro.core.failures import NodeFailureModel
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.core.routing import (
    MAX_REROUTES,
    FailureReason,
    GreedyRouter,
    RecoveryStrategy,
    RouteResult,
)
from repro.fastpath import BatchGreedyRouter, compile_snapshot


def ring_only_graph(n: int = 32) -> OverlayGraph:
    graph = OverlayGraph(RingMetric(n))
    for label in range(n):
        graph.add_node(label)
    graph.wire_ring()
    return graph


class TestBasicRouting:
    def test_route_to_self(self):
        graph = ring_only_graph()
        router = GreedyRouter(graph)
        result = router.route(5, 5)
        assert result.success and result.hops == 0
        assert result.path == [5]

    def test_ring_only_routing_takes_ring_distance_hops(self):
        graph = ring_only_graph(32)
        router = GreedyRouter(graph)
        result = router.route(0, 10)
        assert result.success
        assert result.hops == 10

    def test_ring_routing_goes_the_short_way(self):
        graph = ring_only_graph(32)
        router = GreedyRouter(graph)
        result = router.route(0, 30)
        assert result.success
        assert result.hops == 2

    def test_long_links_shorten_routes(self, ideal_network_1024):
        graph = ideal_network_1024.graph
        router = GreedyRouter(graph)
        result = router.route(0, 512)
        assert result.success
        assert result.hops < 512 // 4

    def test_every_hop_makes_progress(self, ideal_network_256):
        graph = ideal_network_256.graph
        space = graph.space
        router = GreedyRouter(graph)
        result = router.route(3, 200)
        assert result.success
        distances = [space.distance(label, 200) for label in result.path]
        assert all(b < a for a, b in zip(distances, distances[1:]))

    def test_dead_source_and_target(self, ideal_network_256):
        graph = ideal_network_256.graph
        graph.fail_node(10)
        router = GreedyRouter(graph)
        assert router.route(10, 100).failure_reason is FailureReason.DEAD_SOURCE
        assert router.route(100, 10).failure_reason is FailureReason.DEAD_TARGET
        graph.revive_node(10)

    def test_path_endpoints(self, ideal_network_256):
        router = GreedyRouter(ideal_network_256.graph)
        result = router.route(1, 77)
        assert result.path[0] == 1
        assert result.path[-1] == 77

    def test_route_many(self, ideal_network_256):
        router = GreedyRouter(ideal_network_256.graph)
        results = router.route_many([(0, 10), (5, 200), (30, 31)])
        assert len(results) == 3
        assert all(isinstance(r, RouteResult) and r.success for r in results)

    def test_hop_limit_enforced(self):
        graph = ring_only_graph(64)
        router = GreedyRouter(graph, hop_limit=3)
        result = router.route(0, 32)
        assert not result.success
        assert result.failure_reason is FailureReason.HOP_LIMIT
        assert result.hops == 3

    def test_invalid_parameters(self, ideal_network_256):
        with pytest.raises(ValueError):
            GreedyRouter(ideal_network_256.graph, backtrack_depth=0)

    def test_two_sided_may_overshoot(self):
        n = 64
        graph = OverlayGraph(RingMetric(n))
        for label in range(n):
            graph.add_node(label)
        graph.wire_ring()
        graph.add_long_link(20, 31)
        router = GreedyRouter(graph, symmetric_neighbors=False)
        result = router.route(20, 30)
        assert result.success
        assert 31 in result.path

    @pytest.mark.parametrize(
        "router,fields",
        [
            (
                GreedyRouter,
                (
                    "graph", "recovery", "backtrack_depth", "symmetric_neighbors",
                    "hop_limit", "seed",
                ),
            ),
            (
                BatchGreedyRouter,
                ("snapshot", "recovery", "backtrack_depth", "hop_limit", "seed", "reroute_pool"),
            ),
            (ByzantineAwareRouter, ("graph", "adversary", "seed", "hop_limit")),
        ],
        ids=lambda arg: arg.__name__ if isinstance(arg, type) else None,
    )
    def test_no_field_selects_another_greedy_rule(self, router, fields):
        # One rule (two-sided, dead neighbours skipped): no mode, no regime.
        public = tuple(f.name for f in dataclasses.fields(router) if not f.name.startswith("_"))
        assert public == fields


class TestFailureRecovery:
    @pytest.fixture
    def failed_network(self, ideal_network_1024):
        graph = ideal_network_1024.graph
        model = NodeFailureModel(0.4, seed=5)
        model.apply(graph)
        yield graph
        model.repair(graph)

    def test_terminate_reports_stuck(self):
        # Surround the target with dead nodes so no live closer node exists.
        graph = ring_only_graph(32)
        graph.fail_node(9)
        graph.fail_node(11)
        router = GreedyRouter(graph, recovery=RecoveryStrategy.TERMINATE)
        result = router.route(0, 10)
        assert not result.success
        assert result.failure_reason is FailureReason.STUCK

    def test_backtrack_outperforms_terminate(self, ideal_network_1024):
        graph = ideal_network_1024.graph
        model = NodeFailureModel(0.6, seed=3)
        model.apply(graph)
        live = graph.labels(only_alive=True)
        pairs = list(zip(live[0:200:2], live[1:200:2]))
        terminate = GreedyRouter(graph, recovery=RecoveryStrategy.TERMINATE)
        backtrack = GreedyRouter(graph, recovery=RecoveryStrategy.BACKTRACK)
        terminate_failures = sum(1 for s, t in pairs if not terminate.route(s, t).success)
        backtrack_failures = sum(1 for s, t in pairs if not backtrack.route(s, t).success)
        model.repair(graph)
        assert backtrack_failures <= terminate_failures

    def test_random_reroute_records_detours(self):
        graph = ring_only_graph(32)
        graph.fail_node(9)
        graph.fail_node(11)
        router = GreedyRouter(graph, recovery=RecoveryStrategy.RANDOM_REROUTE, seed=1)
        result = router.route(0, 10)
        # The reroute may or may not rescue the search on this tiny ring, but
        # it must have been attempted.
        assert result.reroutes >= 1 or result.success

    def test_detours_stop_at_the_shared_budget(self, failed_network):
        # Both routers draw at most MAX_REROUTES detours per search, the same
        # ones, and some search here needs the whole budget.
        reroute = RecoveryStrategy.RANDOM_REROUTE
        live = failed_network.labels(only_alive=True)
        pairs = list(zip(live[0:400:2], live[1:400:2]))
        scalar = GreedyRouter(failed_network, recovery=reroute, seed=4)
        scalar_detours = [scalar.route(source, target).reroutes for source, target in pairs]
        batch = BatchGreedyRouter(compile_snapshot(failed_network), recovery=reroute, seed=4)
        assert batch.route_pairs(pairs).reroutes.tolist() == scalar_detours
        assert max(scalar_detours) == MAX_REROUTES == 1

    def test_backtrack_records_backtracks(self, failed_network):
        router = GreedyRouter(failed_network, recovery=RecoveryStrategy.BACKTRACK, seed=2)
        live = failed_network.labels(only_alive=True)
        total_backtracks = 0
        for source, target in zip(live[:100:2], live[1:100:2]):
            total_backtracks += router.route(source, target).backtracks
        assert total_backtracks >= 0  # smoke: field is populated without error

    def test_all_strategies_succeed_without_failures(self, ideal_network_256):
        for strategy in RecoveryStrategy:
            router = GreedyRouter(ideal_network_256.graph, recovery=strategy)
            assert router.route(0, 128).success

    def test_symmetric_neighbors_help(self, ideal_network_1024):
        graph = ideal_network_1024.graph
        model = NodeFailureModel(0.5, seed=13)
        model.apply(graph)
        live = graph.labels(only_alive=True)
        pairs = list(zip(live[:300:2], live[1:300:2]))
        symmetric = GreedyRouter(graph, symmetric_neighbors=True)
        directed = GreedyRouter(graph, symmetric_neighbors=False)
        symmetric_failures = sum(1 for s, t in pairs if not symmetric.route(s, t).success)
        directed_failures = sum(1 for s, t in pairs if not directed.route(s, t).success)
        model.repair(graph)
        assert symmetric_failures <= directed_failures
