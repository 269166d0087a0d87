"""Integration tests: the whole stack working together.

These tests exercise the paths a downstream user would take: build or grow a
network, publish and look up resources, inject failures, repair, and verify
the statistical behaviour the paper predicts (at reduced scale).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_ideal_network
from repro.core.bounds import upper_bound_multiple_links
from repro.core.construction import build_heuristic_network
from repro.core.failures import LinkFailureModel, NodeFailureModel
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.dht.dht import DhtConfig, DistributedHashTable
from repro.dht.replication import SuccessorReplication
from repro.simulation.workload import LookupWorkload


class TestIdealNetworkBehaviour:
    def test_hop_counts_scale_sublinearly(self):
        """Doubling n repeatedly must grow hops far slower than linearly."""
        mean_hops = []
        sizes = [256, 1024, 4096]
        for n in sizes:
            graph = build_ideal_network(n, seed=1).graph
            router = GreedyRouter(graph)
            pairs = LookupWorkload(seed=2).pairs(graph.labels(only_alive=True), 100)
            hops = [router.route(s, t).hops for s, t in pairs]
            mean_hops.append(float(np.mean(hops)))
        assert mean_hops[2] < mean_hops[0] * (sizes[2] / sizes[0]) * 0.25
        assert mean_hops[2] < 3 * mean_hops[0]

    def test_hop_counts_within_factor_of_bound(self):
        """Measured hops stay within a small constant of the Theorem-13 shape."""
        n = 2048
        links = 11
        graph = build_ideal_network(n, links_per_node=links, seed=3).graph
        router = GreedyRouter(graph)
        pairs = LookupWorkload(seed=4).pairs(graph.labels(only_alive=True), 150)
        mean_hops = float(np.mean([router.route(s, t).hops for s, t in pairs]))
        bound_shape = upper_bound_multiple_links(n, links)
        assert mean_hops < 10 * bound_shape
        assert mean_hops > 0.05 * bound_shape

    def test_more_links_mean_fewer_hops(self):
        n = 2048
        results = []
        for links in (1, 4, 11):
            graph = build_ideal_network(n, links_per_node=links, seed=5).graph
            router = GreedyRouter(graph)
            pairs = LookupWorkload(seed=6).pairs(graph.labels(only_alive=True), 100)
            results.append(float(np.mean([router.route(s, t).hops for s, t in pairs])))
        assert results[2] < results[1] < results[0]


class TestFailureResilience:
    def test_terminate_failure_fraction_tracks_paper(self):
        """With p of the nodes failed, well under 2p of searches fail (paper: < p)."""
        n = 4096
        graph = build_ideal_network(n, seed=7).graph
        for level in (0.1, 0.3, 0.5):
            model = NodeFailureModel(level, seed=8)
            model.apply(graph)
            live = graph.labels(only_alive=True)
            pairs = LookupWorkload(seed=9).pairs(live, 200)
            router = GreedyRouter(graph, recovery=RecoveryStrategy.TERMINATE)
            failed = sum(1 for s, t in pairs if not router.route(s, t).success) / len(pairs)
            model.repair(graph)
            assert failed <= 1.5 * level + 0.05

    def test_backtracking_is_dramatically_better_at_high_failure(self):
        n = 4096
        graph = build_ideal_network(n, seed=10).graph
        model = NodeFailureModel(0.7, seed=11)
        model.apply(graph)
        live = graph.labels(only_alive=True)
        pairs = LookupWorkload(seed=12).pairs(live, 200)
        terminate = GreedyRouter(graph, recovery=RecoveryStrategy.TERMINATE)
        backtrack = GreedyRouter(graph, recovery=RecoveryStrategy.BACKTRACK)
        terminate_failed = sum(1 for s, t in pairs if not terminate.route(s, t).success)
        backtrack_failed = sum(1 for s, t in pairs if not backtrack.route(s, t).success)
        model.repair(graph)
        assert backtrack_failed < terminate_failed
        assert backtrack_failed <= 0.6 * len(pairs)

    def test_link_failures_slow_but_do_not_break_routing(self):
        n = 2048
        graph = build_ideal_network(n, seed=13).graph
        pairs = LookupWorkload(seed=14).pairs(graph.labels(only_alive=True), 150)
        router = GreedyRouter(graph)
        healthy_hops = float(np.mean([router.route(s, t).hops for s, t in pairs]))
        model = LinkFailureModel(0.5, seed=15)
        model.apply(graph)
        degraded_results = [router.route(s, t) for s, t in pairs]
        model.repair(graph)
        assert all(result.success for result in degraded_results)
        degraded_hops = float(np.mean([r.hops for r in degraded_results]))
        assert degraded_hops >= healthy_hops


class TestHeuristicallyConstructedNetwork:
    def test_constructed_network_routes_comparably_to_ideal(self):
        n = 1024
        ideal = build_ideal_network(n, seed=16).graph
        constructed = build_heuristic_network(n=n, seed=17).graph
        pairs = LookupWorkload(seed=18).pairs(list(range(n)), 150)
        ideal_router = GreedyRouter(ideal)
        constructed_router = GreedyRouter(constructed)
        ideal_hops = float(np.mean([ideal_router.route(s, t).hops for s, t in pairs]))
        constructed_hops = float(
            np.mean([constructed_router.route(s, t).hops for s, t in pairs])
        )
        assert constructed_hops < 3 * ideal_hops

    def test_constructed_network_survives_failures(self):
        n = 1024
        constructed = build_heuristic_network(n=n, seed=19).graph
        model = NodeFailureModel(0.5, seed=20)
        model.apply(constructed)
        live = constructed.labels(only_alive=True)
        pairs = LookupWorkload(seed=21).pairs(live, 100)
        router = GreedyRouter(constructed, recovery=RecoveryStrategy.BACKTRACK)
        failed = sum(1 for s, t in pairs if not router.route(s, t).success) / len(pairs)
        model.repair(constructed)
        assert failed < 0.5


class TestApplicationStack:
    def test_p2p_network_full_lifecycle(self):
        dht = DistributedHashTable(
            DhtConfig(space_size=1 << 10, seed=22, replication=SuccessorReplication(degree=0))
        )
        dht.join_many(range(0, 1 << 10, 8))
        # Publish a batch of resources from different owners.
        for index in range(30):
            assert dht.put(f"file-{index}", index, origin=(index * 8) % 1024).ok
        # Everyone can find everything.
        for index in range(30):
            assert dht.get(f"file-{index}").ok
        # Crash a tenth of the members, repair, and verify the overlay still works.
        members = dht.members()
        for victim in members[:: max(1, len(members) // 12)]:
            dht.crash(victim)
        dht.repair()
        assert dht.put("post-repair", 1).ok
        assert dht.get("post-repair").ok

    def test_dht_with_replication_survives_crashes(self):
        dht = DistributedHashTable(DhtConfig(space_size=512, seed=23))
        dht.join_many(range(0, 512, 4))
        holders = {}
        for index in range(40):
            result = dht.put(f"key-{index}", f"value-{index}", origin=0)
            assert result.ok
            holders[f"key-{index}"] = result.holder
        # Crash a quarter of the primaries.
        crashed = set()
        for key, holder in list(holders.items())[::4]:
            if holder not in crashed and len(crashed) < len(dht.members()) - 4:
                dht.crash(holder)
                crashed.add(holder)
        recovered = sum(1 for index in range(40) if dht.get(f"key-{index}", origin=100).ok)
        assert recovered >= 36  # replication should cover nearly everything
