"""Unit tests for the protocol-agnostic overlay layer (repro.overlay)."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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
from repro.fastpath.snapshot import FastpathSnapshot
from repro.overlay import (
    ChordGreedyPolicy,
    Overlay,
    PrefixGreedyPolicy,
    TorusGreedyPolicy,
)
from repro.overlay.mixin import OverlayMixin
from repro.simulation.workload import LookupWorkload

REPO_ROOT = Path(__file__).resolve().parents[2]


def _all_systems():
    network = P2PNetwork(space_size=128, seed=1)
    network.join_many(list(range(0, 128, 4)))
    return [
        network,
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

    def test_compile_snapshot_returns_a_fastpath_snapshot(self):
        for system in _all_systems():
            snapshot = system.compile_snapshot()
            assert isinstance(snapshot, FastpathSnapshot)
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

    def test_fail_fraction_counts(self, overlay):
        victims = overlay.fail_fraction(0.25, seed=3)
        assert len(victims) == round(0.25 * 36)
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

    @pytest.mark.parametrize(
        "build,stray",
        [
            (lambda: CanNetwork(side=4), 16),
            (lambda: CanNetwork(side=4), -1),
            (lambda: ChordNetwork(bits=6, members=list(range(0, 64, 2))), 3),
            (lambda: ChordNetwork(bits=6, members=list(range(0, 64, 2))), 64),
        ],
        ids=["contiguous-past-end", "contiguous-negative", "sparse-gap", "sparse-past-end"],
    )
    def test_compile_refuses_a_table_naming_a_non_member(self, build, stray):
        overlay = build()
        indptr, flat, classes = overlay.routing_table()
        flat = flat.copy()
        flat[3] = stray
        overlay.routing_table = lambda: (indptr, flat, classes)
        with pytest.raises(ValueError, match=rf"non-member labels \[{stray}\]"):
            overlay.compile_snapshot()

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
        keyed, bound = policy.candidate_keys(
            current, neighbors, targets, classes
        )
        assert keyed[0, 0] < keyed[0, 1] < bound[0]
        assert int(np.argmin(keyed[0])) == 0

    def test_chord_policy_blocks_overshoot(self):
        policy = ChordGreedyPolicy(size=64)
        keyed, bound = policy.candidate_keys(
            np.array([0]),
            np.array([[10]]),
            np.array([5]),
            np.zeros((1, 1), dtype=np.int8),
        )
        assert keyed[0, 0] >= bound[0]

    def test_chord_successor_fallback_picks_nearest(self):
        policy = ChordGreedyPolicy(size=64)
        # Two successors, both admissible: the nearer one must win, matching
        # the scalar first-in-list fallback.
        keyed, _ = policy.candidate_keys(
            np.array([0]),
            np.array([[1, 2]]),
            np.array([10]),
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
        victims = network.fail_fraction(0.25, seed=5)
        assert victims
        assert all(not network.is_alive(victim) for victim in victims)
        network.repair()

    def test_route_matches_internal_router(self):
        network = P2PNetwork(space_size=256, seed=3)
        network.join_many(list(range(0, 256, 2)))
        result = network.route(0, 200)
        assert result.success


def _readme_custom_overlay_blocks() -> list[str]:
    """The python blocks of the README section "Implementing your own Overlay"."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Implementing your own Overlay", 1)[1]
    section = section.split("**Direct-to-CSR builds.**", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def _clockwise_walk(ring, source: int, target: int) -> list[int]:
    """Scalar one-sided walk: the live neighbour advancing farthest without
    passing the target, the first-listed one on ties."""
    path = [source]
    while path[-1] != target and len(path) <= ring.hop_limit:
        current = path[-1]
        remaining = (target - current) % ring.n
        best_advance, best = 0, None
        for neighbor in ring.neighbors_of(current):
            advance = (neighbor - current) % ring.n
            if ring.is_alive(neighbor) and best_advance < advance <= remaining:
                best_advance, best = advance, neighbor
        if best is None:
            break
        path.append(best)
    return path


class TestReadmeCustomOverlay:
    def test_snippets_run_and_route_like_the_scalar_rules(self, capsys):
        blocks = _readme_custom_overlay_blocks()
        assert len(blocks) == 3
        namespace: dict = {"__name__": "readme_custom_overlay"}
        for block in blocks:
            exec(compile(block, "README.md", "exec", dont_inherit=True), namespace)
        ring = namespace["ring"]
        expected = np.array([ring.route(0, 255).success, ring.route(3, 400).success])
        assert capsys.readouterr().out.strip() == str(expected)

        class ClockwiseRing(namespace["EveryOtherRing"]):
            def greedy_policy(self):
                return namespace["ClockwisePolicy"](self.n)

        clockwise = ClockwiseRing(64)
        clockwise.fail_fraction(0.2, seed=7)
        pairs = LookupWorkload(seed=3).pairs(clockwise.labels(only_alive=True), 200)
        router = namespace["BatchGreedyRouter"](
            clockwise.compile_snapshot(), hop_limit=clockwise.hop_limit
        )
        result = router.route_pairs(pairs, record_paths=True)
        paths = [_clockwise_walk(clockwise, source, target) for source, target in pairs]
        assert result.paths == paths
        assert result.success.tolist() == [path[-1] == target for path, (_, target) in zip(paths, pairs)]
        assert 0 < result.success_rate() < 1
