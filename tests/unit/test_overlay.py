"""Unit tests for the protocol-agnostic overlay layer (repro.overlay)."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro.baselines import (
    CanNetwork,
    ChordNetwork,
    KleinbergGridNetwork,
    PlaxtonNetwork,
)
from repro.core.metric import PrefixMetric, TorusMetric
from repro.core.network import P2PNetwork
from repro.core.routing import RoutingMode
from repro.dht import DistributedHashTable
from repro.overlay import (
    ChordGreedyPolicy,
    Overlay,
    OverlaySnapshot,
    PrefixGreedyPolicy,
    TorusGreedyPolicy,
)
from repro.overlay.mixin import OverlayMixin


def _all_systems():
    network = P2PNetwork(space_size=128, seed=1)
    network.join_many(list(range(0, 128, 4)))
    dht = DistributedHashTable(space_size=128, seed=1)
    dht.join_many(list(range(0, 128, 4)))
    return [
        network,
        dht,
        ChordNetwork(bits=6),
        CanNetwork(side=6),
        PlaxtonNetwork(digits=3, base=3),
        KleinbergGridNetwork(side=6, seed=0),
    ]


def _overlay_classes() -> set[type]:
    """Every class in ``repro`` that defines or inherits ``compile_snapshot``.

    The ``Overlay`` protocol itself and the partial ``OverlayMixin`` base are
    left out: neither is an overlay anything builds.
    """
    names = ["repro"] + [
        name for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    return {
        cls
        for name in names
        for _, cls in inspect.getmembers(importlib.import_module(name), inspect.isclass)
        if cls.__module__ == name
        and hasattr(cls, "compile_snapshot")
        and not getattr(cls, "_is_protocol", False)
        and cls is not OverlayMixin
    }


class TestOverlayProtocol:
    def test_all_five_topologies_conform(self):
        systems = _all_systems()
        for system in systems:
            assert isinstance(system, Overlay), type(system).__name__
        # A class claims the protocol by exposing compile_snapshot; each one
        # must be built (and so checked) above.
        unbuilt = _overlay_classes() - {type(system) for system in systems}
        assert not unbuilt, f"add to _all_systems(): {sorted(c.__qualname__ for c in unbuilt)}"

    def test_compile_snapshot_returns_overlay_snapshot(self):
        for system in _all_systems():
            snapshot = system.compile_snapshot()
            assert isinstance(snapshot, OverlaySnapshot)
            assert snapshot.num_nodes == len(system.labels(only_alive=False))

    def test_neighbors_of_lists_members(self):
        for system in _all_systems():
            labels = system.labels()
            label = labels[len(labels) // 2]
            neighbors = system.neighbors_of(label)
            assert neighbors, type(system).__name__
            member_set = set(system.labels(only_alive=False))
            assert set(neighbors) <= member_set
            assert label not in neighbors


class TestOverlayMixin:
    @pytest.fixture()
    def overlay(self) -> CanNetwork:
        return CanNetwork(side=6)

    def test_labels_sorted_and_live_filtered(self, overlay):
        assert overlay.labels() == list(range(36))
        overlay.fail_node(7)
        assert 7 not in overlay.labels()
        assert 7 in overlay.labels(only_alive=False)

    def test_is_alive_for_non_members(self, overlay):
        assert not overlay.is_alive(-1)
        assert not overlay.is_alive(10_000)

    def test_fail_node_non_member_is_noop(self, overlay):
        overlay.fail_node(10_000)
        assert len(overlay.labels()) == 36

    def test_fail_fraction_counts_and_protect(self, overlay):
        victims = overlay.fail_fraction(0.25, seed=3, protect={0, 1})
        assert len(victims) == round(0.25 * (36 - 2))
        assert overlay.is_alive(0) and overlay.is_alive(1)
        assert all(not overlay.is_alive(victim) for victim in victims)

    def test_fail_fraction_is_seed_deterministic(self):
        first = CanNetwork(side=6).fail_fraction(0.3, seed=11)
        second = CanNetwork(side=6).fail_fraction(0.3, seed=11)
        assert first == second

    def test_repair_revives_everyone(self, overlay):
        overlay.fail_fraction(0.5, seed=2)
        overlay.repair()
        assert overlay.labels() == list(range(36))

    def test_sparse_membership_positions(self):
        chord = ChordNetwork(bits=8, members=list(range(0, 256, 5)))
        assert chord.is_alive(10)
        assert not chord.is_alive(11)  # non-member
        chord.fail_node(10)
        assert not chord.is_alive(10)

    def test_duplicate_members_rejected(self):
        class Broken(OverlayMixin):
            pass

        broken = Broken()
        with pytest.raises(ValueError):
            broken._init_members([1, 1, 2])


class TestGreedyPolicies:
    def test_torus_policy_distance_matches_metric(self):
        metric = TorusMetric(7, dimensions=2)
        policy = TorusGreedyPolicy(side=7, dimensions=2)
        can = CanNetwork(side=7)
        for a in (0, 13, 48):
            for b in (5, 20, 44):
                expected = metric.distance(can.label_to_point(a), can.label_to_point(b))
                assert int(policy.distance(np.array([a]), np.array([b]))[0]) == expected

    def test_prefix_policy_distance_matches_metric(self):
        metric = PrefixMetric(base=3, digits=4)
        policy = PrefixGreedyPolicy(base=3, digits=4)
        for a in (0, 5, 26, 80):
            for b in (0, 27, 53):
                assert int(policy.distance(np.array([a]), np.array([b]))[0]) == metric.distance(a, b)

    def test_chord_policy_prefers_fingers_over_successors(self):
        policy = ChordGreedyPolicy(size=64)
        current = np.array([0])
        targets = np.array([3])
        # Neighbour row: finger advancing 2, successor landing exactly on the
        # target.  Chord's scalar rule takes the finger; so must the keys.
        neighbors = np.array([[2, 3]])
        classes = np.array([[0, 1]], dtype=np.int8)
        keyed = policy.candidate_keys(
            current, neighbors, targets, RoutingMode.TWO_SIDED, classes
        )
        assert keyed[0, 0] < keyed[0, 1] < policy.blocked
        assert int(np.argmin(keyed[0])) == 0

    def test_chord_policy_blocks_overshoot(self):
        policy = ChordGreedyPolicy(size=64)
        keyed = policy.candidate_keys(
            np.array([0]),
            np.array([[10]]),
            np.array([5]),
            RoutingMode.TWO_SIDED,
            np.zeros((1, 1), dtype=np.int8),
        )
        assert keyed[0, 0] >= policy.blocked

    def test_chord_successor_fallback_picks_nearest(self):
        policy = ChordGreedyPolicy(size=64)
        # Two successors, both admissible: the nearer one must win, matching
        # the scalar first-in-list fallback.
        keyed = policy.candidate_keys(
            np.array([0]),
            np.array([[1, 2]]),
            np.array([10]),
            RoutingMode.TWO_SIDED,
            np.ones((1, 2), dtype=np.int8),
        )
        assert int(np.argmin(keyed[0])) == 0


class TestPrefixMetric:
    def test_distance_is_ultrametric(self):
        metric = PrefixMetric(base=4, digits=3)
        points = [0, 1, 17, 21, 63]
        for a in points:
            for b in points:
                for c in points:
                    assert metric.distance(a, c) <= max(
                        metric.distance(a, b), metric.distance(b, c)
                    )

    def test_distance_counts_unshared_digits(self):
        metric = PrefixMetric(base=4, digits=5)
        plaxton = PlaxtonNetwork(digits=5, base=4)
        a = plaxton.label_from_digits([1, 2, 3, 0, 0])
        b = plaxton.label_from_digits([1, 2, 0, 0, 0])
        assert metric.distance(a, b) == 3
        assert metric.distance(a, a) == 0
        assert metric.shared_prefix_length(a, b) == 2

    def test_size_and_contains(self):
        metric = PrefixMetric(base=3, digits=3)
        assert metric.size() == 27
        assert metric.contains(26) and not metric.contains(27)


class TestP2PNetworkConformance:
    def test_fail_fraction_and_repair(self):
        network = P2PNetwork(space_size=256, seed=2)
        network.join_many(list(range(0, 256, 4)))
        victims = network.fail_fraction(0.25, seed=5, protect={0})
        assert victims and network.is_alive(0)
        assert all(not network.is_alive(victim) for victim in victims)
        network.repair()

    def test_route_matches_internal_router(self):
        network = P2PNetwork(space_size=256, seed=3)
        network.join_many(list(range(0, 256, 2)))
        result = network.route(0, 200)
        assert result.success
