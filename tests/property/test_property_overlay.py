"""Property-based parity tests for the protocol-agnostic Overlay layer.

The Overlay contract (see :mod:`repro.overlay`) is that every topology —
Chord, CAN, Plaxton prefix routing, the Kleinberg grid, and the paper's own
overlay — compiles into a snapshot whose batched routes are **hop-for-hop
identical** to the protocol's scalar ``route()``: same paths, same hop
counts, same success verdicts, same failure reasons, at any seed and any
node-failure level.  These tests generate random instances and assert
exactly that, plus snapshot-build determinism: compiling the same overlay
(or two identically constructed overlays) yields bit-identical arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    CanNetwork,
    ChordNetwork,
    KleinbergGridNetwork,
    PlaxtonNetwork,
)
from repro.core.routing import RoutingMode
from repro.fastpath import BatchGreedyRouter
from repro.fastpath.dtypes import label_dtype
from repro.overlay import (
    ChordGreedyPolicy,
    MetricGreedyPolicy,
    PrefixGreedyPolicy,
    TorusGreedyPolicy,
)
from repro.simulation.workload import LookupWorkload


def _build(protocol: str, scale: int, seed: int):
    """One small instance of each protocol family; ``scale`` in [0, 2]."""
    if protocol == "chord":
        return ChordNetwork(bits=6 + scale)
    if protocol == "chord-sparse":
        size = 1 << (7 + scale)
        return ChordNetwork(bits=7 + scale, members=list(range(0, size, 3)))
    if protocol == "can":
        return CanNetwork(side=6 + 3 * scale, dimensions=2)
    if protocol == "can-3d":
        return CanNetwork(side=4 + scale, dimensions=3)
    if protocol == "plaxton":
        return PlaxtonNetwork(digits=3 + scale, base=3)
    if protocol == "kleinberg":
        return KleinbergGridNetwork(side=8 + 2 * scale, links_per_node=2, seed=seed)
    raise AssertionError(protocol)


PROTOCOL_INSTANCES = (
    "chord", "chord-sparse", "can", "can-3d", "plaxton", "kleinberg",
)


@st.composite
def overlay_scenario(draw):
    """A protocol instance plus a failed fraction and a routed workload."""
    protocol = draw(st.sampled_from(PROTOCOL_INSTANCES))
    scale = draw(st.integers(min_value=0, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=30))
    level = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]))
    queries = draw(st.integers(min_value=5, max_value=30))
    return protocol, scale, seed, level, queries


class TestOverlayParity:
    @settings(max_examples=40, deadline=None)
    @given(overlay_scenario())
    def test_batched_routes_match_scalar_route(self, scenario):
        """compile_snapshot + BatchGreedyRouter == scalar route(), path for path."""
        protocol, scale, seed, level, queries = scenario
        overlay = _build(protocol, scale, seed)
        overlay.fail_fraction(level, seed=seed + 1)
        live = overlay.labels(only_alive=True)
        if len(live) < 2:
            return
        pairs = LookupWorkload(seed=seed + 2).pairs(live, queries)
        batch = BatchGreedyRouter(
            overlay.compile_snapshot(), hop_limit=overlay.hop_limit
        )
        result = batch.route_pairs(pairs, record_paths=True)
        for index, (source, target) in enumerate(pairs):
            reference = overlay.route(source, target)
            assert bool(result.success[index]) == reference.success
            assert int(result.hops[index]) == reference.hops
            assert result.paths[index] == reference.path
            assert result.failure_reason(index) == reference.failure_reason

    @settings(max_examples=20, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOL_INSTANCES),
        seed=st.integers(min_value=0, max_value=30),
        level=st.sampled_from([0.0, 0.4]),
    )
    def test_dead_endpoints_report_identically(self, protocol, seed, level):
        """Dead sources/targets fail with the same reason on both engines."""
        overlay = _build(protocol, 0, seed)
        overlay.fail_fraction(level, seed=seed + 3)
        all_labels = overlay.labels(only_alive=False)
        dead = [label for label in all_labels if not overlay.is_alive(label)]
        live = overlay.labels(only_alive=True)
        if not dead or not live:
            return
        pairs = [(dead[0], live[0]), (live[0], dead[0]), (dead[0], dead[-1])]
        batch = BatchGreedyRouter(
            overlay.compile_snapshot(), hop_limit=overlay.hop_limit
        )
        result = batch.route_pairs(pairs, record_paths=True)
        for index, (source, target) in enumerate(pairs):
            reference = overlay.route(source, target)
            assert bool(result.success[index]) == reference.success
            assert result.failure_reason(index) == reference.failure_reason
            assert int(result.hops[index]) == reference.hops


class TestSnapshotDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOL_INSTANCES),
        scale=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=30),
        level=st.sampled_from([0.0, 0.3]),
    )
    def test_compile_is_deterministic_across_instances(
        self, protocol, scale, seed, level
    ):
        """Identically constructed overlays compile to bit-identical snapshots."""
        first = _build(protocol, scale, seed)
        second = _build(protocol, scale, seed)
        for overlay in (first, second):
            overlay.fail_fraction(level, seed=seed + 5)
        a = first.compile_snapshot()
        b = second.compile_snapshot()
        again = first.compile_snapshot()
        for left, right in ((a, b), (a, again)):
            assert left.kind == right.kind
            assert left.space_size == right.space_size
            assert np.array_equal(left.labels, right.labels)
            assert np.array_equal(left.alive, right.alive)
            assert np.array_equal(left.neighbor_indptr, right.neighbor_indptr)
            assert np.array_equal(left.neighbor_indices, right.neighbor_indices)
            assert left.policy == right.policy
            if left.edge_class is None:
                assert right.edge_class is None
            else:
                assert np.array_equal(left.edge_class, right.edge_class)

    def test_snapshot_is_immutable_under_later_failures(self):
        """Failing nodes after compilation does not leak into the snapshot."""
        overlay = CanNetwork(side=8)
        snapshot = overlay.compile_snapshot()
        before = snapshot.alive.copy()
        overlay.fail_fraction(0.5, seed=9)
        assert np.array_equal(snapshot.alive, before)


def _policy(family: str, scale: int):
    """A small instance of each policy family and the size of its label space."""
    if family in ("ring", "line"):
        size = 5 + 13 * scale
        return MetricGreedyPolicy(kind=family, space_size=size), size
    if family == "torus":
        side, dimensions = 3 + scale, 2 + scale % 2
        return TorusGreedyPolicy(side=side, dimensions=dimensions), side**dimensions
    if family == "prefix":
        base, digits = 2 + scale % 2, 3 + scale // 2
        return PrefixGreedyPolicy(base=base, digits=digits), base**digits
    if family == "chord":
        size = 8 << scale
        return ChordGreedyPolicy(size=size), size
    raise AssertionError(family)


class TestSelfIsNeverAdmissible:
    """The contract ``FastpathSnapshot.label_matrix`` pads rows on."""

    @pytest.mark.parametrize("family", ["ring", "line", "torus", "prefix", "chord"])
    @pytest.mark.parametrize("scale", range(4))
    def test_own_label_keys_blocked_for_every_target(self, family, scale):
        """A slot holding the current node's own label is never a candidate."""
        policy, size = _policy(family, scale)
        labels = np.arange(size, dtype=label_dtype(size))
        current, target = (grid.ravel() for grid in np.meshgrid(labels, labels))
        distinct = current != target
        current, target = current[distinct], target[distinct]
        own = np.stack([current, current], axis=1)
        # Chord is the one policy that reads edge classes: none, fingers, successors.
        tiers = [None]
        if family == "chord":
            tiers += [np.full(own.shape, tier, dtype=np.int8) for tier in (0, 1)]
        for mode in RoutingMode:
            for edge_class in tiers:
                keyed = policy.candidate_keys(current, own, target, mode, edge_class)
                assert keyed.shape == own.shape
                assert (keyed >= policy.blocked).all(), (mode, edge_class is None)
