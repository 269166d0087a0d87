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
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.core.network import P2PNetwork
from repro.core.routing import RoutingMode
from repro.fastpath import BatchGreedyRouter, compile_snapshot
from repro.fastpath.dtypes import (
    CONTRACT_BEGIN,
    CONTRACT_END,
    INT32_COUNT_CUTOFF,
    INT32_SPACE_CUTOFF,
    SNAPSHOT_CONTRACT,
    expected_snapshot_dtypes,
    indptr_dtype,
    label_dtype,
    narrow_indptr,
    narrow_labels,
    snapshot_nbytes,
    update_contract_block,
)
from repro.overlay import ChordGreedyPolicy, MetricGreedyPolicy, PrefixGreedyPolicy
from repro.simulation.workload import LookupWorkload

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
    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_metric_ring(self, size, mode):
        def distance(a, b):
            return min(abs(a - b), size - abs(a - b))

        def displacement(source, target):
            forward = (target - source) % size
            return forward if forward <= size - forward else forward - size

        (current, neighbors, targets), labels, pairs = _probe(size)
        policy = MetricGreedyPolicy("ring", size)
        keys = policy.candidate_keys(current, neighbors, targets, mode)
        expected = []
        for source, target in pairs:
            row = []
            for neighbor in labels:
                before, after = displacement(source, target), displacement(neighbor, target)
                admissible = distance(neighbor, target) < distance(source, target) and not (
                    mode is RoutingMode.ONE_SIDED and (before > 0) != (after > 0) and after != 0
                )
                row.append(distance(neighbor, target) if admissible else size + 1)
            expected.append(row)
        assert keys.tolist() == expected
        assert policy.distance(current, targets).tolist() == [distance(a, b) for a, b in pairs]

    @pytest.mark.parametrize("size", [1 << 29, (1 << 29) + 1, 1 << 30])
    def test_chord(self, size):
        def clockwise(a, b):
            return (b - a) % size

        (current, neighbors, targets), labels, pairs = _probe(size)
        # Slots alternate finger (class 0) and successor (class 1).
        edge_class = np.tile(np.array([0, 1, 0, 1], dtype=np.int8), (len(pairs), 1))
        keys = ChordGreedyPolicy(size).candidate_keys(
            current, neighbors, targets, RoutingMode.ONE_SIDED, edge_class
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
        keys = policy.candidate_keys(current, neighbors, targets, RoutingMode.TWO_SIDED)
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
        assert policy.distance(current, targets).tolist() == [distance(a, b) for a, b in pairs]


class TestContractTable:
    def test_readme_contract_block_is_in_sync(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert CONTRACT_BEGIN in readme and CONTRACT_END in readme
        assert update_contract_block(readme) == readme, (
            "README dtype-contract table is stale — run "
            "`python -m repro.fastpath.dtypes --write README.md`"
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
