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
from repro.fastpath import FAILURE_CODES, BatchGreedyRouter
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
            assert result.failure_codes[index] == FAILURE_CODES[reference.failure_reason]

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
            assert result.failure_codes[index] == FAILURE_CODES[reference.failure_reason]
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
    if family == "ring":
        size = 5 + 13 * scale
        return MetricGreedyPolicy(space_size=size), size
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


def _tiers(family: str, shape):
    """Edge-class matrices to key under: Chord reads none, fingers, successors."""
    tiers = [None]
    if family == "chord":
        tiers += [np.full(shape, tier, dtype=np.int8) for tier in (0, 1)]
    return tiers


class TestSelfIsNeverAdmissible:
    """The contract ``FastpathSnapshot.label_matrix`` pads rows on."""

    @pytest.mark.parametrize("family", ["ring", "torus", "prefix", "chord"])
    @pytest.mark.parametrize("scale", range(4))
    def test_own_label_keys_at_or_above_the_bound(self, family, scale):
        """A slot holding the current node's own label is never a candidate."""
        policy, size = _policy(family, scale)
        labels = np.arange(size, dtype=label_dtype(size))
        current, target = (grid.ravel() for grid in np.meshgrid(labels, labels))
        distinct = current != target
        current, target = current[distinct], target[distinct]
        own = np.stack([current, current], axis=1)
        for edge_class in _tiers(family, own.shape):
            keyed, bound = policy.candidate_keys(current, own, target, edge_class)
            assert keyed.shape == own.shape and bound.shape == current.shape
            assert (keyed >= bound[:, None]).all(), edge_class is None
            assert (bound <= policy.blocked).all()


def _admissible(family, policy, current, neighbor, target):
    """The scalar rule: strictly closer; Chord advances clockwise by at least
    one without passing the target."""
    def distance(a, b):
        return int(policy.distance(np.array([a]), np.array([b]))[0])

    if family == "chord":
        return 1 <= distance(current, neighbor) <= distance(current, target)
    return distance(neighbor, target) < distance(current, target)


class TestKeysBelowTheBound:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["ring", "torus", "prefix", "chord"]),
        scale=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_admissibility_matches_the_scalar_rule(self, family, scale, data):
        """``keys < bound[:, None]`` is exactly the scalar rule's candidate set."""
        policy, size = _policy(family, scale)
        point = st.integers(min_value=0, max_value=size - 1)
        queries = data.draw(st.integers(min_value=1, max_value=6))
        width = data.draw(st.integers(min_value=1, max_value=6))
        current = data.draw(st.lists(point, min_size=queries, max_size=queries))
        target = data.draw(st.lists(point, min_size=queries, max_size=queries))
        rows = data.draw(
            st.lists(st.lists(point, min_size=width, max_size=width),
                     min_size=queries, max_size=queries)
        )
        dtype = label_dtype(size)
        arrays = [np.array(values, dtype=dtype) for values in (current, rows, target)]
        for edge_class in _tiers(family, (queries, width)):
            keyed, bound = policy.candidate_keys(*arrays, edge_class)
            expected = [
                [_admissible(family, policy, c, n, t) for n in row]
                for c, row, t in zip(current, rows, target)
            ]
            assert (keyed < bound[:, None]).tolist() == expected


class TestTorusKeyArithmetic:
    """One division per axis, in the label dtype, equals Python-int arithmetic."""

    @settings(max_examples=80, deadline=None)
    @given(dimensions=st.integers(min_value=1, max_value=3), data=st.data())
    def test_keys_and_bound_match_python_ints(self, dimensions, data):
        # Sides up to the largest whose space still fits the int32 labels.
        largest = {1: 1 << 30, 2: 1 << 15, 3: 1 << 10}[dimensions]
        side = data.draw(st.integers(min_value=2, max_value=largest))
        size = side**dimensions
        point = st.integers(min_value=0, max_value=size - 1)
        queries = data.draw(st.integers(min_value=1, max_value=5))
        width = data.draw(st.integers(min_value=1, max_value=5))
        current = data.draw(st.lists(point, min_size=queries, max_size=queries))
        target = data.draw(st.lists(point, min_size=queries, max_size=queries))
        rows = data.draw(
            st.lists(st.lists(point, min_size=width, max_size=width),
                     min_size=queries, max_size=queries)
        )

        def distance(a, b):
            total = 0
            for _ in range(dimensions):
                (a, a_axis), (b, b_axis) = divmod(a, side), divmod(b, side)
                total += min(abs(a_axis - b_axis), side - abs(a_axis - b_axis))
            return total

        dtype = label_dtype(size)
        policy = TorusGreedyPolicy(side=side, dimensions=dimensions)
        keys, bound = policy.candidate_keys(
            *(np.array(values, dtype=dtype) for values in (current, rows, target))
        )
        assert keys.dtype == bound.dtype == dtype
        assert keys.tolist() == [[distance(n, t) for n in row] for row, t in zip(rows, target)]
        assert bound.tolist() == [distance(c, t) for c, t in zip(current, target)]
        assert (bound < policy.blocked).all()


# Frozen copies of the Chord and prefix keys as they were computed before
# the keys were derived in fewer passes: five ``np.where`` temporaries for
# Chord, a full-matrix floor-divide for the prefix rule.  The live policies
# must return the same keys, bounds and dtypes.


def _chord_keys_reference(size, current_labels, neighbor_labels, target_labels, edge_class):
    neighbors = np.asarray(neighbor_labels)
    dtype = neighbors.dtype if size <= (1 << 29) else np.dtype(np.int64)
    neighbors = neighbors.astype(dtype, copy=False)
    current = np.asarray(current_labels).astype(dtype, copy=False)
    targets = np.asarray(target_labels).astype(dtype, copy=False)
    size_ = dtype.type(size)
    delta = targets - current
    remaining = np.where(delta < 0, delta + size_, delta)
    delta = neighbors - current[:, None]
    advance = np.where(delta < 0, delta + size_, delta)
    candidates = (advance >= 1) & (advance <= remaining[:, None])
    keys = remaining[:, None] - advance
    if edge_class is not None:
        keys = np.where(edge_class > 0, advance + (size_ + dtype.type(1)), keys)
    blocked = dtype.type(2 * size + 3)
    return (
        np.where(candidates, keys, blocked),
        np.full(targets.shape[0], blocked, dtype=dtype),
    )


def _prefix_keys_reference(base, digits, current_labels, neighbor_labels, target_labels):
    def distance(a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        total = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for level in range(digits):
            scale = base**level
            total += a // scale != b // scale
        return total

    neighbors = np.asarray(neighbor_labels)
    dtype = neighbors.dtype
    current = np.asarray(current_labels)
    targets = np.asarray(target_labels)
    current_distance = distance(current, targets)
    scale = (base ** np.maximum(current_distance - 1, 0)).astype(dtype)
    agrees = neighbors // scale[:, None] == (targets.astype(dtype) // scale)[:, None]
    candidates = agrees & (current_distance[:, None] >= 1)
    keys = current_distance.astype(dtype) - dtype.type(1)
    blocked = dtype.type(digits + 1)
    return (
        np.where(candidates, keys[:, None], blocked),
        np.full(targets.shape[0], blocked, dtype=dtype),
    )


@st.composite
def _key_rows(draw, size: int, scales: list[int]):
    """``(current, rows, target)`` label lists that reach the key arithmetic's edges.

    Besides uniform labels, a label is drawn next to an anchor's block of
    ``scale`` labels — its first label, the first past it, or one either
    side — with the query's own current node or target as the anchor, so
    rows hold the node's own label, the hop that lands on the target, and
    the labels on each side of every digit block.  A current node equals
    its target in about a third of the queries.
    """
    uniform = st.integers(min_value=0, max_value=size - 1)

    def near(anchor: int):
        return st.builds(
            lambda scale, past, step: (anchor // scale * scale + past * scale + step) % size,
            st.sampled_from(scales),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=-1, max_value=1),
        )

    queries = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=6))
    target = draw(st.lists(uniform, min_size=queries, max_size=queries))
    current = [draw(st.one_of(st.just(t), uniform, near(t))) for t in target]
    rows = [
        draw(st.lists(st.one_of(uniform, near(c), near(t)), min_size=width, max_size=width))
        for c, t in zip(current, target)
    ]
    return current, rows, target


def _label_arrays(size, current, rows, target):
    dtype = label_dtype(size)
    return [np.array(values, dtype=dtype) for values in (current, rows, target)]


def _assert_same_keys(got, expected):
    for array, reference in zip(got, expected):
        assert array.dtype == reference.dtype
        assert array.shape == reference.shape
        assert array.tolist() == reference.tolist()


class TestKeysMatchTheFrozenDerivation:
    """The fewer-pass Chord and prefix keys equal the ones they replaced."""

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.sampled_from(
            [8 << k for k in range(5)] + [1 << 29, (1 << 29) + 1, 1 << 30, 1 << 33]
        ),
        data=st.data(),
    )
    def test_chord(self, size, data):
        scales = [1 << k for k in range(0, size.bit_length(), 3)]
        current, rows, target = data.draw(_key_rows(size, scales))
        arrays = _label_arrays(size, current, rows, target)
        shape = arrays[1].shape
        mixed = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1])),
            dtype=np.int8,
        ).reshape(shape)
        policy = ChordGreedyPolicy(size=size)
        for edge_class in (None, np.zeros(shape, np.int8), np.ones(shape, np.int8), mixed):
            _assert_same_keys(
                policy.candidate_keys(*arrays, edge_class),
                _chord_keys_reference(size, *arrays, edge_class),
            )

    @settings(max_examples=100, deadline=None)
    @given(
        base_digits=st.sampled_from(
            [(2, 3), (2, 5), (3, 3), (3, 4), (4, 3), (4, 7), (5, 2), (5, 4), (2, 33)]
        ),
        data=st.data(),
    )
    def test_prefix(self, base_digits, data):
        base, digits = base_digits
        size = base**digits
        scales = [base**level for level in range(digits + 1)]
        current, rows, target = data.draw(_key_rows(size, scales))
        arrays = _label_arrays(size, current, rows, target)
        _assert_same_keys(
            PrefixGreedyPolicy(base=base, digits=digits).candidate_keys(*arrays),
            _prefix_keys_reference(base, digits, *arrays),
        )
