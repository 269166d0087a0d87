"""Unit tests for self-maintenance and repair."""

from __future__ import annotations

import pytest

from repro.core.construction import HeuristicConstruction
from repro.core.maintenance import MaintenanceDaemon, MaintenanceReport
from repro.core.metric import RingMetric
from repro.core.routing import GreedyRouter


def repair_all(daemon: MaintenanceDaemon) -> MaintenanceReport:
    """Frozen per-node reference for ``MaintenanceDaemon.repair_all_batched``.

    Repairs every live node in node-table order, then re-stitches the ring
    once.  The batched pass must reach the same graph and the same report
    (``test_repair_all_batched_matches_repair_all``).
    """
    report = MaintenanceReport()
    for label in list(daemon.graph.labels(only_alive=True)):
        report = report.merge(daemon.repair_node(label))
    report.ring_repairs += daemon._restitch_ring()
    return report


REPAIRS = {"repair_all": repair_all, "repair_all_batched": MaintenanceDaemon.repair_all_batched}


@pytest.fixture
def construction() -> HeuristicConstruction:
    c = HeuristicConstruction(space=RingMetric(256), links_per_node=4, seed=0)
    c.add_points(list(range(0, 256, 4)))
    return c


class TestMaintenanceReport:
    def test_merge_sums_fields(self):
        first = MaintenanceReport(dead_links_dropped=1, links_regenerated=2, messages=3)
        second = MaintenanceReport(dead_links_dropped=4, ring_repairs=5, messages=6)
        merged = first.merge(second)
        assert merged.dead_links_dropped == 5
        assert merged.links_regenerated == 2
        assert merged.ring_repairs == 5
        assert merged.messages == 9

    def test_merge_is_associative_and_has_identity(self):
        reports = [
            MaintenanceReport(dead_links_dropped=1, messages=2),
            MaintenanceReport(links_regenerated=3, ring_repairs=4),
            MaintenanceReport(dead_links_dropped=5, links_regenerated=6, messages=7),
            MaintenanceReport(),
        ]
        for a in reports:
            for b in reports:
                for c in reports:
                    assert a.merge(b).merge(c) == a.merge(b.merge(c))
        identity = MaintenanceReport()
        for report in reports:
            assert report.merge(identity) == report
            assert identity.merge(report) == report

    def test_merge_does_not_mutate_operands(self):
        first = MaintenanceReport(dead_links_dropped=1)
        second = MaintenanceReport(dead_links_dropped=2)
        first.merge(second)
        assert first.dead_links_dropped == 1
        assert second.dead_links_dropped == 2


class TestMaintenanceDaemon:
    def test_repair_node_drops_and_regenerates(self, construction):
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        # Find a node with at least one long link and kill one of its targets.
        holder = next(
            node.label for node in graph.nodes() if node.long_links
        )
        victim = graph.node(holder).long_links[0].target
        graph.fail_node(victim)
        report = daemon.repair_node(holder)
        assert report.dead_links_dropped >= 1
        assert victim not in graph.node(holder).long_link_targets(only_alive=False)

    def test_repair_all_restitches_ring_around_dead_nodes(self, construction):
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        graph.fail_node(8)
        report = daemon.repair_all_batched()
        assert report.ring_repairs >= 1
        assert graph.node(4).right == 12
        assert graph.node(12).left == 4

    def test_handle_departure(self, construction):
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        # Pick a node that is the target of at least one long link.
        departing = max(graph.labels(), key=lambda label: len(graph.incoming_sources(label)))
        report = daemon.handle_departure(departing)
        assert not graph.has_node(departing)
        assert report.ring_repairs >= 1

    def test_repair_keeps_network_routable(self, construction):
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        for victim in [16, 64, 128, 192]:
            graph.fail_node(victim)
        daemon.repair_all_batched()
        live = graph.labels(only_alive=True)
        router = GreedyRouter(graph)
        result = router.route(live[0], live[len(live) // 2])
        assert result.success

    def test_repair_all_drops_exactly_the_links_to_dead_nodes(self, construction):
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        for victim in graph.labels()[::7]:
            graph.fail_node(victim)
        dead_links = sum(
            1
            for node in graph.nodes()
            if node.alive
            for target in node.long_link_targets(only_alive=False)
            if not graph.is_alive(target)
        )
        assert dead_links > 0
        report = daemon.repair_all_batched()
        assert report.dead_links_dropped == dead_links
        # Each drop draws one replacement; a draw repeating a target is not added.
        assert 0 < report.links_regenerated <= dead_links
        for node in graph.nodes():
            if node.alive:
                assert all(
                    graph.is_alive(t) for t in node.long_link_targets(only_alive=False)
                )

    @pytest.mark.parametrize("method", sorted(REPAIRS))
    def test_healthy_graph_is_left_untouched(self, construction, method):
        from repro.fastpath import compile_snapshot
        from repro.fastpath.delta import assert_snapshots_identical

        before = compile_snapshot(construction.graph)
        report = REPAIRS[method](MaintenanceDaemon(construction))
        assert report == MaintenanceReport()
        assert_snapshots_identical(compile_snapshot(construction.graph), before)

    def test_repair_node_skips_dead_holder(self, construction):
        daemon = MaintenanceDaemon(construction)
        construction.graph.fail_node(0)
        report = daemon.repair_node(0)
        assert report.dead_links_dropped == 0
        assert report.links_regenerated == 0

    def test_repair_keeps_reverse_index_consistent(self, construction):
        """Dropped links must leave the incoming index, not linger in it."""
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        holder = next(node.label for node in graph.nodes() if node.long_links)
        victim = graph.node(holder).long_links[0].target
        graph.fail_node(victim)
        daemon.repair_node(holder)
        assert holder not in graph.incoming_sources(victim, only_alive_links=False)

    def test_double_departure_is_a_noop(self, construction):
        daemon = MaintenanceDaemon(construction)
        departing = construction.graph.labels()[0]
        first = daemon.handle_departure(departing)
        assert first.ring_repairs >= 1
        before = sorted(construction.graph.labels())
        second = daemon.handle_departure(departing)
        assert second == MaintenanceReport()
        assert sorted(construction.graph.labels()) == before

    def test_departure_with_no_live_successor(self, construction):
        """Every other node dead: departure still restitches without error."""
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        departing = graph.labels()[0]
        for label in graph.labels():
            if label != departing:
                graph.fail_node(label)
        report = daemon.handle_departure(departing)
        assert not graph.has_node(departing)
        assert report.ring_repairs >= 1
        # No live node regenerates links (every candidate target is dead).
        assert report.links_regenerated == 0
        # A repair pass over the all-dead remainder leaves a clean state.
        daemon.repair_all_batched()

    def test_restitch_with_single_live_node(self, construction):
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        survivor = graph.labels()[3]
        for label in graph.labels():
            if label != survivor:
                graph.fail_node(label)
        daemon.repair_all_batched()
        node = graph.node(survivor)
        assert node.left is None and node.right is None

    def test_restitch_with_no_live_nodes(self, construction):
        daemon = MaintenanceDaemon(construction)
        graph = construction.graph
        for label in graph.labels():
            graph.fail_node(label)
        report = daemon.repair_all_batched()
        assert report.ring_repairs == 0


class TestBatchedRepair:
    def test_repair_all_batched_matches_repair_all(self):
        """Same seed, same damage: batched and per-node repair are identical."""
        import numpy as np

        from repro.fastpath import compile_snapshot

        def run(batched: bool):
            c = HeuristicConstruction(space=RingMetric(256), links_per_node=4, seed=0)
            c.add_points(list(range(0, 256, 4)))
            daemon = MaintenanceDaemon(c)
            for victim in c.graph.labels()[::5]:
                c.graph.fail_node(victim)
            report = daemon.repair_all_batched() if batched else repair_all(daemon)
            return compile_snapshot(c.graph), report

        plain_snapshot, plain_report = run(batched=False)
        batched_snapshot, batched_report = run(batched=True)
        assert plain_report == batched_report
        for name in ("labels", "alive", "neighbor_indptr", "neighbor_indices"):
            assert np.array_equal(
                getattr(plain_snapshot, name), getattr(batched_snapshot, name)
            ), name

    def test_repair_all_batched_on_healthy_graph(self, construction):
        daemon = MaintenanceDaemon(construction)
        report = daemon.repair_all_batched()
        assert report.dead_links_dropped == 0
        assert report.links_regenerated == 0
