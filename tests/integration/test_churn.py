"""Integration tests: continuous churn with maintenance."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.construction import HeuristicConstruction
from repro.core.maintenance import MaintenanceDaemon
from repro.core.metric import RingMetric
from repro.core.routing import GreedyRouter
from repro.core.network import P2PNetwork
from repro.simulation.workload import ChurnWorkload, LookupWorkload


class TestChurnOnConstruction:
    def test_interleaved_joins_and_departures_keep_network_routable(self):
        n = 512
        construction = HeuristicConstruction(space=RingMetric(n), links_per_node=6, seed=0)
        daemon = MaintenanceDaemon(construction)
        churn = ChurnWorkload(space_size=n, join_rate=2.0, leave_rate=1.0, seed=1)
        initial = list(range(0, n, 8))
        construction.add_points(initial)
        events = churn.schedule(duration=60.0, initial_members=initial)
        assert events
        for event in events:
            if event.action == "join":
                # Crashed nodes stay in the graph until maintenance excises
                # them, so skip join addresses that are still present.
                if not construction.graph.has_node(event.address):
                    construction.add_point(event.address)
            elif event.action == "leave":
                daemon.handle_departure(event.address)
            else:  # crash
                construction.graph.fail_node(event.address)
        # After the churn burst, run a repair pass and verify routing works.
        daemon.repair_all_batched()
        # Excise crashed nodes entirely.
        for node in list(construction.graph.nodes()):
            if not node.alive:
                daemon.handle_departure(node.label)
        graph = construction.graph
        live = graph.labels(only_alive=True)
        assert len(live) > 10
        router = GreedyRouter(graph)
        pairs = LookupWorkload(seed=2).pairs(live, 50)
        successes = sum(1 for s, t in pairs if router.route(s, t).success)
        assert successes >= 45

    def test_links_point_only_at_members_after_churn(self):
        n = 256
        construction = HeuristicConstruction(space=RingMetric(n), links_per_node=4, seed=3)
        daemon = MaintenanceDaemon(construction)
        members = list(range(0, n, 4))
        construction.add_points(members)
        # Remove a third of the members and add some new ones.
        for victim in members[::3]:
            daemon.handle_departure(victim)
        for newcomer in range(1, n, 16):
            if not construction.graph.has_node(newcomer):
                construction.add_point(newcomer)
        occupied = set(construction.graph.labels())
        for node in construction.graph.nodes():
            for target in node.long_link_targets(only_alive=False):
                assert target in occupied


class TestChurnOnFacade:
    def test_network_facade_under_churn(self):
        network = P2PNetwork(512, seed=4)
        network.join_many(range(0, 512, 8))

        churn = ChurnWorkload(space_size=512, join_rate=1.5, leave_rate=1.0,
                              crash_fraction=0.4, seed=5)
        events = churn.schedule(duration=40.0, initial_members=network.members())
        applied = Counter()
        for event in events:
            if event.action == "join" and not network.graph.has_node(event.address):
                network.join(event.address)
            elif event.action == "leave" and event.address in network.members():
                network.leave(event.address)
            elif event.action == "crash" and event.address in network.members():
                network.crash(event.address)
            else:
                continue
            applied[event.action] += 1
        network.repair()
        # Membership reflects exactly the churn that was applied, and the
        # repair pass excised every crashed node.
        assert applied["join"] > 0
        assert applied["leave"] > 0 and applied["crash"] > 0
        members = network.members()
        assert len(members) == 64 + applied["join"] - applied["leave"] - applied["crash"]
        assert sorted(members) == network.labels(only_alive=False)
        # The repaired overlay routes between any live members.
        for source, target in LookupWorkload(seed=6).pairs(members, 100):
            route = network.route(source, target)
            assert route.success
            assert route.path[0] == source and route.path[-1] == target
