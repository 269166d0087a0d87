"""Unit tests for the P2PNetwork facade: membership, maintenance and routing."""

from __future__ import annotations

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import numpy as np
import pytest

from repro.core.construction import NeverReplace
from repro.core.network import P2PNetwork
from repro.core.routing import FailureReason, RecoveryStrategy


@pytest.fixture
def network() -> P2PNetwork:
    net = P2PNetwork(space_size=512, seed=1)
    net.join_many(list(range(0, 512, 8)))
    return net


def crashed_network(recovery: RecoveryStrategy) -> P2PNetwork:
    """The ``network`` fixture's overlay with 30 % of its members crashed."""
    net = P2PNetwork(space_size=512, recovery=recovery, seed=1)
    net.join_many(list(range(0, 512, 8)))
    net.fail_fraction(0.3, seed=7)
    return net


def sample_routes(network: P2PNetwork):
    """Route from every fifth live member to every third one."""
    live = network.members()
    return [network.route(source, target) for source in live[::5] for target in live[::3]]


class TestConstruction:
    @pytest.mark.parametrize(
        ("space_size", "links"), [(1, 1), (2, 1), (3, 2), (1000, 10), (1024, 10), (1025, 11)]
    )
    def test_default_links_per_node_is_ceil_lg_space(self, space_size, links):
        assert P2PNetwork(space_size).links_per_node == links

    def test_explicit_links_per_node_is_kept(self):
        assert P2PNetwork(512, links_per_node=3).links_per_node == 3

    @pytest.mark.parametrize("space_size", [0, -8])
    def test_non_positive_space_rejected(self, space_size):
        with pytest.raises(ValueError):
            P2PNetwork(space_size)

    def test_default_recovery_is_backtrack(self):
        assert P2PNetwork(512).recovery is RecoveryStrategy.BACKTRACK

    def test_same_seed_builds_the_same_overlay(self, network):
        twin = P2PNetwork(space_size=512, seed=1)
        twin.join_many(list(range(0, 512, 8)))
        assert all(twin.neighbors_of(label) == network.neighbors_of(label)
                   for label in network.members())

    def test_neighbors_of_is_the_compiled_row(self):
        net = P2PNetwork(space_size=256, seed=1)
        net.join_many(list(range(0, 256, 4)))

        def assert_rows_match():
            snapshot = net.compile_snapshot()
            indptr = snapshot.neighbor_indptr
            for row, label in enumerate(snapshot.labels.tolist()):
                compiled = snapshot.labels[snapshot.neighbor_indices[indptr[row] : indptr[row + 1]]]
                assert net.neighbors_of(label) == compiled.tolist(), label

        assert_rows_match()
        net.crash(100)
        assert_rows_match()
        holder = net.members()[3]
        net.graph.fail_long_link(holder, net.graph.node(holder).long_links[0].target)
        assert_rows_match()

    def test_seed_changes_the_overlay(self, network):
        other = P2PNetwork(space_size=512, seed=2)
        other.join_many(list(range(0, 512, 8)))
        assert any(other.neighbors_of(label) != network.neighbors_of(label)
                   for label in network.members())

    def test_replacement_policy_shapes_the_overlay(self, network):
        # Under NeverReplace no holder redirects a link, so the last node to
        # join receives no incoming long link; the paper's rule gives it some.
        frozen = P2PNetwork(space_size=512, replacement_policy=NeverReplace(), seed=1)
        frozen.join_many(list(range(0, 512, 8)))
        assert frozen.graph.incoming_sources(504) == []
        assert network.graph.incoming_sources(504)


class TestMembership:
    def test_join_many(self, network):
        assert len(network.members()) == 64

    def test_join_duplicate_rejected(self, network):
        with pytest.raises(ValueError):
            network.join(0)

    def test_join_out_of_space_rejected(self, network):
        with pytest.raises(ValueError):
            network.join(1000)

    def test_numpy_integer_joins_store_python_ints(self):
        net = P2PNetwork(space_size=64)
        net.join(np.int64(33))
        net.join_many([np.int32(5), np.int64(60)])
        assert net.members() == [33, 5, 60]
        assert all(type(label) is int for label in net.members())

    @pytest.mark.parametrize("address", [True, np.int64(64), 3.0])
    def test_non_points_rejected(self, address):
        with pytest.raises(ValueError, match="outside the identifier space"):
            P2PNetwork(space_size=64).join(address)

    def test_leave_removes_member(self, network):
        network.leave(8)
        assert 8 not in network.members()

    def test_leave_unknown_rejected(self, network):
        with pytest.raises(ValueError):
            network.leave(3)

    def test_crash_marks_dead(self, network):
        network.crash(16)
        assert 16 not in network.members()
        assert network.graph.has_node(16)

    def test_crash_unknown_rejected(self, network):
        with pytest.raises(ValueError):
            network.crash(3)


class TestOverlaySurface:
    def test_labels_are_sorted_while_members_keep_join_order(self):
        net = P2PNetwork(space_size=64)
        net.join_many([33, 5, 60])
        assert net.members() == [33, 5, 60]
        assert net.labels() == [5, 33, 60]

    def test_dead_labels_only_on_request(self, network):
        network.crash(16)
        assert 16 not in network.labels()
        assert 16 in network.labels(only_alive=False)
        assert len(network.labels(only_alive=False)) == 64

    def test_is_alive_false_for_crashed_and_non_members(self, network):
        network.crash(16)
        assert network.is_alive(8)
        assert not network.is_alive(16)
        assert not network.is_alive(3)

    def test_fail_node_ignores_non_members_and_the_dead(self, network):
        network.fail_node(3)
        network.fail_node(16)
        network.fail_node(16)
        assert not network.graph.has_node(3)
        assert network.labels(only_alive=False) == list(range(0, 512, 8))
        assert network.labels() == [label for label in range(0, 512, 8) if label != 16]

    @pytest.mark.parametrize(("fraction", "count"), [(0.0, 0), (0.1, 6), (0.3, 19), (1.0, 64)])
    def test_fail_fraction_crashes_the_rounded_share(self, network, fraction, count):
        victims = network.fail_fraction(fraction, seed=3)
        assert len(set(victims)) == count
        assert len(network.members()) == 64 - count
        assert not any(network.is_alive(victim) for victim in victims)

    def test_fail_fraction_is_deterministic_in_its_seed(self, network):
        twin = P2PNetwork(space_size=512, seed=1)
        twin.join_many(list(range(0, 512, 8)))
        other = P2PNetwork(space_size=512, seed=1)
        other.join_many(list(range(0, 512, 8)))
        victims = network.fail_fraction(0.3, seed=7)
        assert twin.fail_fraction(0.3, seed=7) == victims
        assert other.fail_fraction(0.3, seed=8) != victims

    def test_compile_snapshot_mirrors_the_graph(self, network):
        network.crash(16)
        snapshot = network.compile_snapshot()
        assert snapshot.kind == "ring"
        assert snapshot.space_size == 512
        assert snapshot.labels.tolist() == network.labels(only_alive=False)
        assert snapshot.labels[~snapshot.alive].tolist() == [16]

    def test_compiled_snapshot_ignores_later_crashes(self, network):
        snapshot = network.compile_snapshot()
        network.crash(16)
        assert int(snapshot.alive.sum()) == 64
        assert int(network.compile_snapshot().alive.sum()) == 63


class TestRouting:
    def test_routes_between_members_deliver(self, network):
        for route in sample_routes(network):
            assert route.success
            assert route.failure_reason is FailureReason.NONE
            assert route.hops == len(route.path) - 1

    def test_route_starts_at_source_and_ends_at_target(self, network):
        for source in network.members()[::9]:
            for target in network.members()[::7]:
                path = network.route(source, target).path
                assert (path[0], path[-1]) == (source, target)

    def test_route_to_self_is_zero_hops(self, network):
        route = network.route(8, 8)
        assert route.success
        assert (route.hops, route.path) == (0, [8])

    def test_greedy_hops_strictly_approach_the_target(self, network):
        for source in network.members()[::9]:
            for target in network.members()[::7]:
                distances = [network.space.distance(label, target)
                             for label in network.route(source, target).path]
                assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_every_hop_follows_a_link_of_either_endpoint(self, network):
        # The router knows links symmetrically: a hop may follow the current
        # node's own link or a link that the next node holds to it.
        for route in sample_routes(network):
            for here, there in zip(route.path, route.path[1:]):
                assert there in network.graph.neighbors_of(here, include_incoming=True)

    def test_route_is_deterministic(self):
        nets = []
        for _ in range(2):
            net = crashed_network(RecoveryStrategy.RANDOM_REROUTE)
            nets.append([route.path for route in sample_routes(net)])
        assert nets[0] == nets[1]

    def test_route_from_dead_source_fails(self, network):
        network.crash(16)
        route = network.route(16, 256)
        assert not route.success
        assert route.failure_reason is FailureReason.DEAD_SOURCE

    def test_route_to_dead_target_fails(self, network):
        network.crash(16)
        route = network.route(0, 16)
        assert not route.success
        assert route.failure_reason is FailureReason.DEAD_TARGET

    @pytest.mark.parametrize("recovery", list(RecoveryStrategy))
    def test_every_strategy_delivers_on_a_healthy_overlay(self, recovery):
        net = P2PNetwork(space_size=512, recovery=recovery, seed=1)
        net.join_many(list(range(0, 512, 8)))
        assert all(route.success for route in sample_routes(net))

    def test_any_single_crash_off_the_path_leaves_the_route_unchanged(self):
        # Greedy takes the closest neighbour at each step, so a node it never
        # chose can go without changing a single hop.
        def build() -> P2PNetwork:
            net = P2PNetwork(space_size=256, seed=4)
            net.join_many(list(range(0, 256, 8)))
            return net

        pairs = [(8, 248), (24, 160), (200, 40)]
        healthy = build()
        paths = {pair: healthy.route(*pair).path for pair in pairs}
        for victim in range(0, 256, 8):
            net = build()
            net.crash(victim)
            for pair in pairs:
                if victim not in paths[pair]:
                    assert net.route(*pair).path == paths[pair], (victim, pair)
                elif victim not in pair:
                    assert victim not in net.route(*pair).path

    @pytest.mark.parametrize("recovery", list(RecoveryStrategy))
    def test_routes_never_visit_crashed_nodes(self, recovery):
        net = crashed_network(recovery)
        crashed = set(net.labels(only_alive=False)) - set(net.members())
        assert len(crashed) == 19
        for route in sample_routes(net):
            assert not crashed & set(route.path)

    @pytest.mark.parametrize(
        ("recovery", "reroutes", "backtracks"),
        [
            (RecoveryStrategy.TERMINATE, False, False),
            (RecoveryStrategy.RANDOM_REROUTE, True, False),
            (RecoveryStrategy.BACKTRACK, False, True),
        ],
    )
    def test_recovery_strategy_sets_the_recovery_moves(self, recovery, reroutes, backtracks):
        routes = sample_routes(crashed_network(recovery))
        assert any(route.reroutes for route in routes) is reroutes
        assert any(route.backtracks for route in routes) is backtracks


class TestFailuresAndRepair:
    def test_repair_removes_crashed_nodes(self, network):
        network.crash(16)
        network.repair()
        assert not network.graph.has_node(16)
        # The network remains routable after repair.
        assert network.route(0, 256).success

    def test_repair_restores_delivery_after_crashes(self):
        net = crashed_network(RecoveryStrategy.TERMINATE)
        assert not all(route.success for route in sample_routes(net))
        net.repair()
        assert len(net.labels(only_alive=False)) == 45
        assert all(route.success for route in sample_routes(net))

    def test_repair_links_point_only_at_members(self):
        net = crashed_network(RecoveryStrategy.BACKTRACK)
        net.repair()
        members = set(net.members())
        for label in members:
            assert set(net.graph.neighbors_of(label, only_alive_nodes=False)) <= members

    def test_repair_without_crashes_keeps_every_member(self, network):
        network.repair()
        assert network.labels(only_alive=False) == list(range(0, 512, 8))

    def test_leave_unlinks_the_departed(self, network):
        network.leave(64)
        for label in network.members():
            assert 64 not in network.graph.neighbors_of(
                label, only_alive_nodes=False, include_incoming=True
            )

    def test_joiner_after_leave_is_reachable(self, network):
        network.leave(64)
        network.join(100)
        assert network.graph.incoming_sources(100)
        for source in network.members()[::5]:
            route = network.route(source, 100)
            assert route.success and route.path[-1] == 100


# sha256 of examples/quickstart.py's stdout: member counts, and the delivered
# count, hop statistics, backtracks and one sample path of every lookup
# sample, healthy, under 30 % crashes and after repair.
QUICKSTART_DIGEST = "0bc6c7b3b7896f9731327434756da2adf6467fb2c480a09635a3539bd7a18a21"


def test_quickstart_output_is_pinned():
    example = Path(__file__).parents[2] / "examples" / "quickstart.py"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(example), run_name="__main__")
    digest = hashlib.sha256(stdout.getvalue().rstrip().encode()).hexdigest()
    assert digest == QUICKSTART_DIGEST
