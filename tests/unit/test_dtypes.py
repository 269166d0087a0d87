"""The snapshot dtype contract (repro.fastpath.dtypes) end to end.

Three layers of protection: unit tests for the narrowing functions and
their cutoffs, a golden dtype map for a compiled snapshot at n = 2**10
(plus the past-cutoff int64 fallback), and hop-for-hop parity between a
narrowed snapshot and its hand-widened int64 twin on all five protocols —
the dtype a snapshot stores must never change where a message lands.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import (
    CanNetwork,
    ChordNetwork,
    KleinbergGridNetwork,
    PlaxtonNetwork,
)
from repro.core.builder import build_ideal_network
from repro.core.distributions import InversePowerLawDistribution
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.core.network import P2PNetwork
from repro.fastpath import BatchGreedyRouter, compile_snapshot
from repro.devtools.readme import CONTRACT, replace_block
from repro.fastpath.dtypes import (
    INT32_COUNT_CUTOFF,
    INT32_SPACE_CUTOFF,
    INDEX_DTYPE,
    SNAPSHOT_CONTRACT,
    expected_snapshot_dtypes,
    indptr_dtype,
    label_dtype,
    narrow_indptr,
    narrow_labels,
    snapshot_nbytes,
)
from repro.fastpath.builder import _draw_long_links, _first_occurrences
from repro.overlay import (
    ChordGreedyPolicy,
    MetricGreedyPolicy,
    PrefixGreedyPolicy,
    TorusGreedyPolicy,
)
from repro.simulation.workload import LookupWorkload
from repro.util.rng import spawn_rng

REPO_ROOT = Path(__file__).resolve().parents[2]


def _widened(snapshot):
    """The same snapshot with labels/indptr hand-upcast to int64."""
    return dataclasses.replace(
        snapshot,
        labels=snapshot.labels.astype(np.int64),
        neighbor_indptr=snapshot.neighbor_indptr.astype(np.int64),
        _dense_cache={},
    )


def _five_protocols():
    network = P2PNetwork(space_size=256, seed=3)
    network.join_many(list(range(0, 256, 2)))
    return [
        network,
        ChordNetwork(bits=7),
        CanNetwork(side=8),
        PlaxtonNetwork(digits=4, base=3),
        KleinbergGridNetwork(side=8, seed=5),
    ]


class TestNarrowingFunctions:
    def test_label_dtype_cutoff_boundaries(self):
        assert label_dtype(INT32_SPACE_CUTOFF) == np.dtype(np.int32)
        assert label_dtype(INT32_SPACE_CUTOFF + 1) == np.dtype(np.int64)
        assert label_dtype(1) == np.dtype(np.int32)

    def test_indptr_dtype_cutoff_boundaries(self):
        assert indptr_dtype(INT32_COUNT_CUTOFF) == np.dtype(np.int32)
        assert indptr_dtype(INT32_COUNT_CUTOFF + 1) == np.dtype(np.int64)

    def test_narrow_labels_values_survive(self):
        wide = np.array([0, 5, (1 << 20)], dtype=np.int64)
        narrow = narrow_labels(wide, 1 << 21)
        assert narrow.dtype == np.dtype(np.int32)
        np.testing.assert_array_equal(narrow, wide)
        still_wide = narrow_labels(wide, INT32_SPACE_CUTOFF + 1)
        assert still_wide.dtype == np.dtype(np.int64)

    def test_narrow_indptr_reads_total_from_last_entry(self):
        indptr = np.array([0, 2, 7], dtype=np.int64)
        assert narrow_indptr(indptr).dtype == np.dtype(np.int32)
        np.testing.assert_array_equal(narrow_indptr(indptr), indptr)

    def test_ring_intermediates_fit_at_the_cutoff(self):
        # The widest arithmetic routing does on labels is the wrap-around
        # delta (|a - b| + space_size), bounded by 2*space_size - 1; the
        # cutoff must keep that inside int32.
        assert 2 * INT32_SPACE_CUTOFF - 1 <= np.iinfo(np.int32).max


class TestGoldenDtypeMap:
    def test_compiled_snapshot_at_2_pow_10(self):
        graph = build_ideal_network(1 << 10, seed=7).graph
        snapshot = compile_snapshot(graph)
        expected = expected_snapshot_dtypes(
            snapshot.space_size, int(snapshot.neighbor_indptr[-1])
        )
        assert snapshot.labels.dtype == expected["labels"] == np.dtype(np.int32)
        assert snapshot.alive.dtype == expected["alive"] == np.dtype(np.bool_)
        assert (
            snapshot.neighbor_indptr.dtype
            == expected["neighbor_indptr"]
            == np.dtype(np.int32)
        )
        assert (
            snapshot.neighbor_indices.dtype
            == expected["neighbor_indices"]
            == np.dtype(np.int32)
        )

    def test_past_cutoff_space_falls_back_to_int64(self):
        graph = OverlayGraph(RingMetric(INT32_SPACE_CUTOFF + 1))
        labels = [0, 1, 2, 1 << 30]
        for label in labels:
            graph.add_node(label)
        for source, target in zip(labels, labels[1:] + labels[:1]):
            graph.add_long_link(source, target)
            graph.add_long_link(target, source)
        snapshot = compile_snapshot(graph)
        assert snapshot.labels.dtype == np.dtype(np.int64)
        # The entry count still fits int32, so indptr narrows regardless.
        assert snapshot.neighbor_indptr.dtype == np.dtype(np.int32)
        router = BatchGreedyRouter(snapshot)
        result = router.route_pairs([(0, 1 << 30)])
        assert bool(result.success[0])

    def test_narrowing_shrinks_snapshot_bytes(self):
        graph = build_ideal_network(1 << 10, seed=7).graph
        snapshot = compile_snapshot(graph)
        wide = _widened(snapshot)
        assert snapshot_nbytes(snapshot) < snapshot_nbytes(wide)


class TestNarrowedWideParity:
    @pytest.mark.parametrize(
        "index", range(5), ids=["ring", "chord", "can", "plaxton", "kleinberg"]
    )
    def test_routes_identical_hop_for_hop(self, index):
        overlay = _five_protocols()[index]
        overlay.fail_fraction(0.2, seed=17)
        live = overlay.labels(only_alive=True)
        pairs = LookupWorkload(seed=23).pairs(live, 40)
        snapshot = overlay.compile_snapshot()
        assert snapshot.labels.dtype == np.dtype(np.int32)
        wide = _widened(snapshot)
        hop_limit = getattr(overlay, "hop_limit", None)
        narrow_result = BatchGreedyRouter(snapshot, hop_limit=hop_limit).route_pairs(
            pairs, record_paths=True
        )
        wide_result = BatchGreedyRouter(wide, hop_limit=hop_limit).route_pairs(
            pairs, record_paths=True
        )
        np.testing.assert_array_equal(narrow_result.success, wide_result.success)
        np.testing.assert_array_equal(narrow_result.hops, wide_result.hops)
        np.testing.assert_array_equal(narrow_result.final, wide_result.final)
        assert narrow_result.paths == wide_result.paths


def _probe(size: int):
    """Labels 0, 1, size // 2, size - 1 in the space's label dtype.

    Returns every (current, target) pair as two arrays, a neighbour row per
    pair holding all four labels, and the same three as Python ints.
    """
    labels = [0, 1, size // 2, size - 1]
    pairs = [(current, target) for current in labels for target in labels]
    dtype = label_dtype(size)
    arrays = (
        np.array([current for current, _ in pairs], dtype=dtype),
        np.array([labels] * len(pairs), dtype=dtype),
        np.array([target for _, target in pairs], dtype=dtype),
    )
    return arrays, labels, pairs


class TestPolicyCutoffs:
    """Policy arithmetic on compact labels equals Python-int arithmetic at the cutoffs."""

    @pytest.mark.parametrize("size", [INT32_SPACE_CUTOFF, INT32_SPACE_CUTOFF + 1])
    def test_metric_ring(self, size):
        def distance(a, b):
            return min(abs(a - b), size - abs(a - b))

        (current, neighbors, targets), labels, pairs = _probe(size)
        policy = MetricGreedyPolicy(size)
        keys, bound = policy.candidate_keys(current, neighbors, targets)
        expected, admissible = [], []
        for source, target in pairs:
            row = [distance(neighbor, target) for neighbor in labels]
            expected.append(row)
            admissible.append([key < distance(source, target) for key in row])
        assert keys.tolist() == expected
        assert bound.tolist() == [distance(a, b) for a, b in pairs]
        assert (keys < bound[:, None]).tolist() == admissible
        assert policy.distance(current, targets).tolist() == [distance(a, b) for a, b in pairs]

    @pytest.mark.parametrize("size", [1 << 29, (1 << 29) + 1, 1 << 30, 1 << 33])
    def test_chord(self, size):
        def clockwise(a, b):
            return (b - a) % size

        (current, neighbors, targets), labels, pairs = _probe(size)
        # Slots alternate finger (class 0) and successor (class 1).
        edge_class = np.tile(np.array([0, 1, 0, 1], dtype=np.int8), (len(pairs), 1))
        keys, bound = ChordGreedyPolicy(size).candidate_keys(
            current, neighbors, targets, edge_class
        )
        expected = []
        for source, target in pairs:
            remaining = clockwise(source, target)
            row = []
            for slot, neighbor in enumerate(labels):
                advance = clockwise(source, neighbor)
                if not 1 <= advance <= remaining:
                    row.append(2 * size + 3)
                elif slot % 2:
                    row.append(advance + size + 1)
                else:
                    row.append(remaining - advance)
            expected.append(row)
        assert keys.tolist() == expected
        assert bound.tolist() == [2 * size + 3] * len(pairs)
        assert ChordGreedyPolicy(size).distance(current, targets).tolist() == [
            clockwise(a, b) for a, b in pairs
        ]

    def test_prefix_past_int32(self):
        base, digits = 2, 33
        size = base**digits
        assert size > 1 << 31

        def distance(a, b):
            return sum(a // base**level != b // base**level for level in range(digits))

        (current, neighbors, targets), labels, pairs = _probe(size)
        policy = PrefixGreedyPolicy(base=base, digits=digits)
        keys, bound = policy.candidate_keys(current, neighbors, targets)
        expected = [
            [
                distance(source, target) - 1
                if distance(neighbor, target) < distance(source, target)
                else digits + 1
                for neighbor in labels
            ]
            for source, target in pairs
        ]
        assert keys.tolist() == expected
        assert bound.tolist() == [digits + 1] * len(pairs)
        assert policy.distance(current, targets).tolist() == [distance(a, b) for a, b in pairs]

    @pytest.mark.parametrize("side,dimensions", [(1 << 30, 1), (1 << 15, 2)])
    def test_torus_at_the_cutoff(self, side, dimensions):
        # Exactly INT32_SPACE_CUTOFF points: keys and bound stay int32.
        assert side**dimensions == INT32_SPACE_CUTOFF
        _assert_torus_keys(side, dimensions)

    def test_torus_past_int32(self):
        # A side that is not a power of two: an int32 wrap of a label past
        # 2**31 then lands on other coordinates, not the same ones.
        side, dimensions = 50_000, 2
        assert side**dimensions > 1 << 31
        _assert_torus_keys(side, dimensions)


def _assert_torus_keys(side: int, dimensions: int) -> None:
    """Torus keys, bound and distance at the probe labels equal Python-int arithmetic."""
    size = side**dimensions

    def distance(a, b):
        total = 0
        for _ in range(dimensions):
            (a, a_axis), (b, b_axis) = divmod(a, side), divmod(b, side)
            diff = abs(a_axis - b_axis)
            total += min(diff, side - diff)
        return total

    (current, neighbors, targets), labels, pairs = _probe(size)
    policy = TorusGreedyPolicy(side=side, dimensions=dimensions)
    keys, bound = policy.candidate_keys(current, neighbors, targets)
    assert keys.dtype == bound.dtype == label_dtype(size)
    assert keys.tolist() == [[distance(n, t) for n in labels] for _, t in pairs]
    assert bound.tolist() == [distance(a, b) for a, b in pairs]
    assert policy.distance(current, targets).tolist() == [distance(a, b) for a, b in pairs]


class TestBuildKeyCutoffs:
    """The direct builder's int64 packed keys, past the int32 range, on tiny inputs."""

    def test_first_occurrences_of_wide_values(self):
        # Values past 2**30: a dedupe that packed ``value << 2 | slot`` into
        # int32 would wrap 2**30 + 5 onto 5 and lose a distinct value.
        big = (1 << 30) + 5
        block = np.array([[5, big, 5, big], [big, 7, big - 1, big]], dtype=INDEX_DTYPE)
        assert _first_occurrences(block).tolist() == [
            [True, True, False, False],
            [True, True, True, False],
        ]

    def test_incoming_keys_past_int32(self):
        # Keys ``target * n + source`` reach n**2 = 2**32 with one link per row.
        n = 1 << 16
        slots = np.empty((n, 1), dtype=INDEX_DTYPE)
        keep = np.ones((n, 1), dtype=bool)
        keys = _draw_long_links(
            slots, keep, InversePowerLawDistribution(n), spawn_rng(3, "links"), True
        )
        assert keys.dtype == np.dtype(np.int64)
        expected = slots[:, 0].astype(np.int64) * n + np.arange(n)
        np.testing.assert_array_equal(keys, expected)
        assert int(keys.max()) > INT32_COUNT_CUTOFF


class TestContractTable:
    def test_readme_contract_block_is_in_sync(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert CONTRACT.begin in readme and CONTRACT.end in readme
        assert replace_block(readme, CONTRACT) == readme, (
            "README dtype-contract table is stale — run "
            "`python -m repro.devtools.readme --write README.md`"
        )

    def test_contract_covers_every_snapshot_array_field(self):
        fields = {
            entry.field for entry in SNAPSHOT_CONTRACT if entry.owner == "FastpathSnapshot"
        }
        assert fields == {
            "labels",
            "alive",
            "neighbor_indptr",
            "neighbor_indices",
            "edge_class",
            "edge_alive",
        }
