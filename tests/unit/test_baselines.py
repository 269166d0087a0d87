"""Unit tests for the baseline systems (Chord, Kleinberg grid, CAN, Plaxton).

The module also holds the per-label oracle for the overlays' array tables: a
frozen copy of each routing-table builder and of the snapshot compiler as
they were written before the tables became arrays (one Python loop per label,
entry and digit).  ``TestTablesMatchScalarOracle`` holds every compiled
snapshot, ``neighbors_of`` row and Chord's ``average_table_size`` to them.
Do not edit the references to make a failure go away: a difference means the
array build lists, orders or marks an entry differently.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import kleinberg_grid
from repro.baselines.can import CanNetwork
from repro.baselines.chord import ChordNetwork
from repro.baselines.kleinberg_grid import KleinbergGridNetwork
from repro.baselines.plaxton import PlaxtonNetwork
from repro.fastpath.delta import assert_snapshots_identical
from repro.fastpath.dtypes import label_dtype, narrow_indptr
from repro.fastpath.snapshot import FastpathSnapshot
from repro.util.rng import spawn_rng

# --------------------------------------------------------------------------- #
# The frozen per-label references
# --------------------------------------------------------------------------- #


def scalar_chord_tables(chord):
    """Every member's finger table and successor list, one member at a time."""
    fingers, successors = {}, {}
    for label in chord.members:
        fingers[label] = [
            chord.successor_of((label + (1 << i)) % chord.size) for i in range(chord.bits)
        ]
        row = []
        cursor = label
        for _ in range(chord.successor_list_length):
            cursor = chord.successor_of((cursor + 1) % chord.size)
            row.append(cursor)
            if cursor == label:
                break
        successors[label] = row
    return fingers, successors


def scalar_chord_entries(chord):
    fingers, successors = scalar_chord_tables(chord)

    def entries(label):
        for finger in fingers[label]:
            if finger != label:
                yield finger, 0
        for successor in successors[label]:
            if successor != label:
                yield successor, 1

    return entries


def scalar_chord_average_table_size(chord):
    fingers, successors = scalar_chord_tables(chord)
    total = 0
    for label in chord.members:
        entries = set(fingers[label]) | set(successors[label])
        entries.discard(label)
        total += len(entries)
    return total / len(chord.members)


def scalar_can_neighbors(can, label):
    point = can.label_to_point(label)
    result = []
    for axis, delta in itertools.product(range(can.dimensions), (-1, 1)):
        neighbor = list(point)
        neighbor[axis] = (neighbor[axis] + delta) % can.side
        result.append(can.point_to_label(tuple(neighbor)))
    return result


def scalar_plaxton_neighbors(plaxton, label):
    own = plaxton.digits_of(label)
    result = []
    for position in range(plaxton.digits):
        for digit in range(plaxton.base):
            if digit == own[position]:
                continue
            mutated = list(own)
            mutated[position] = digit
            result.append(plaxton.label_from_digits(mutated))
    return result


def scalar_kleinberg_contacts(grid):
    """One ``Generator.choice`` per label on the contacts stream."""
    rng = spawn_rng(grid.seed, "kleinberg-contacts")
    labels = np.arange(grid.size)
    rows, columns = labels // grid.side, labels % grid.side
    contacts = {}
    for label in range(grid.size):
        row, column = grid.label_to_point(label)
        row_diff = np.abs(rows - row)
        column_diff = np.abs(columns - column)
        distance = (
            np.minimum(row_diff, grid.side - row_diff)
            + np.minimum(column_diff, grid.side - column_diff)
        ).astype(float)
        with np.errstate(divide="ignore"):
            weights = np.where(distance > 0, distance**-2.0, 0.0)
        probabilities = weights / weights.sum()
        chosen = rng.choice(grid.size, size=grid.links_per_node, p=probabilities)
        contacts[label] = sorted(set(int(c) for c in chosen) - {label})
    return contacts


def scalar_kleinberg_neighbors(grid):
    contacts = scalar_kleinberg_contacts(grid)

    def neighbors(label):
        row, column = grid.label_to_point(label)
        lattice = [
            grid.point_to_label(((row + 1) % grid.side, column)),
            grid.point_to_label(((row - 1) % grid.side, column)),
            grid.point_to_label((row, (column + 1) % grid.side)),
            grid.point_to_label((row, (column - 1) % grid.side)),
        ]
        return lattice + contacts[label]

    return neighbors


def scalar_neighbor_entries(overlay):
    """``label -> iterator of (neighbor, edge_class)`` in candidate order."""
    if isinstance(overlay, ChordNetwork):
        return scalar_chord_entries(overlay)
    if isinstance(overlay, KleinbergGridNetwork):
        neighbors = scalar_kleinberg_neighbors(overlay)
    else:
        scalar = scalar_can_neighbors if isinstance(overlay, CanNetwork) else scalar_plaxton_neighbors
        neighbors = functools.partial(scalar, overlay)
    return lambda label: ((neighbor, 0) for neighbor in neighbors(label))


def scalar_compile_snapshot(overlay, entries):
    """The snapshot compiler as one loop over members and their entries."""
    member_labels = overlay._member_labels
    num_nodes = int(member_labels.size)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    flat_labels, flat_classes, flat_holders = [], [], []
    for index, label in enumerate(member_labels.tolist()):
        for neighbor, edge_class in entries(label):
            flat_labels.append(int(neighbor))
            flat_classes.append(int(edge_class))
            flat_holders.append(label)
        indptr[index + 1] = len(flat_labels)
    flat = np.asarray(flat_labels, dtype=np.int64)
    indices = np.searchsorted(member_labels, flat)
    indices = np.clip(indices, 0, max(num_nodes - 1, 0))
    assert not (flat.size and np.any(member_labels[indices] != flat))
    classes = np.asarray(flat_classes, dtype=np.int8)
    edge_alive = None
    if overlay._dead_edges:
        dead = overlay._dead_edges
        edge_alive = np.asarray(
            [(holder, neighbor) not in dead for holder, neighbor in zip(flat_holders, flat_labels)],
            dtype=bool,
        )
        if bool(edge_alive.all()):
            edge_alive = None
    return FastpathSnapshot(
        kind=overlay.snapshot_kind,
        space_size=overlay.space.size(),
        labels=member_labels.astype(label_dtype(overlay.space.size())),
        alive=overlay._alive.copy(),
        neighbor_indptr=narrow_indptr(indptr),
        neighbor_indices=indices.astype(np.int32),
        symmetric_neighbors=False,
        policy=overlay.greedy_policy(),
        edge_class=classes if np.any(classes) else None,
        edge_alive=edge_alive,
    )


class TestChord:
    @pytest.fixture(scope="class")
    def chord(self) -> ChordNetwork:
        return ChordNetwork(bits=9)

    def test_successor_of(self):
        chord = ChordNetwork(bits=6, members=[0, 10, 20, 40])
        assert chord.successor_of(5) == 10
        assert chord.successor_of(10) == 10
        assert chord.successor_of(50) == 0  # wraps

    def test_route_success_and_log_hops(self, chord):
        result = chord.route(0, 300)
        assert result.success
        assert result.hops <= chord.bits

    def test_route_to_self(self, chord):
        result = chord.route(5, 5)
        assert result.success and result.hops == 0

    def test_routing_hops_scale_logarithmically(self):
        small = ChordNetwork(bits=6)
        large = ChordNetwork(bits=10)
        small_hops = [small.route(0, t).hops for t in range(1, 64, 7)]
        large_hops = [large.route(0, t).hops for t in range(1, 1024, 101)]
        assert max(large_hops) <= 2 * large.bits
        assert sum(large_hops) / len(large_hops) > sum(small_hops) / len(small_hops) * 0.8

    def test_failures_then_stabilize(self):
        chord = ChordNetwork(bits=8)
        chord.fail_fraction(0.3, seed=1)
        for endpoint in (0, 200):
            chord.revive_node(endpoint)
        result_before = chord.route(0, 200)
        chord.stabilize()
        result_after = chord.route(0, 200)
        assert result_after.success
        assert result_after.hops <= max(result_before.hops, 2 * chord.bits)

    def test_repair(self):
        chord = ChordNetwork(bits=7)
        chord.fail_fraction(0.5, seed=2)
        chord.repair()
        assert len(chord.labels()) == len(chord.members)

    def test_dead_endpoints(self, chord):
        chord2 = ChordNetwork(bits=6)
        chord2.fail_node(10)
        assert not chord2.route(10, 20).success
        assert not chord2.route(20, 10).success

    def test_average_table_size(self, chord):
        assert 1 < chord.average_table_size() <= chord.bits + chord.successor_list_length

    def test_sparse_membership(self):
        chord = ChordNetwork(bits=10, members=list(range(0, 1024, 16)))
        result = chord.route(0, 512)
        assert result.success

    def test_too_few_members_rejected(self):
        with pytest.raises(ValueError):
            ChordNetwork(bits=4, members=[1])


class TestKleinbergGrid:
    @pytest.fixture(scope="class")
    def grid(self) -> KleinbergGridNetwork:
        return KleinbergGridNetwork(side=16, links_per_node=2, seed=0)

    def test_label_point_roundtrip(self, grid):
        for label in [0, 15, 16, 255]:
            assert grid.point_to_label(grid.label_to_point(label)) == label

    def test_grid_neighbors(self, grid):
        neighbors = grid.grid_neighbors(0)
        assert len(neighbors) == 4
        assert grid.point_to_label((0, 1)) in neighbors
        assert grid.point_to_label((15, 0)) in neighbors  # wraps

    def test_route_success(self, grid):
        result = grid.route(0, 200)
        assert result.success
        assert result.hops <= 2 * grid.side

    def test_long_links_beat_lattice_only(self):
        lattice_like = KleinbergGridNetwork(side=20, links_per_node=1, seed=1)
        hops = [lattice_like.route(0, t).hops for t in [210, 399, 250, 305]]
        # Greedy with long links should be well under the lattice diameter (20).
        assert sum(hops) / len(hops) < 25

    def test_failures_cause_some_failures(self, grid):
        grid.fail_fraction(0.4, seed=3)
        for endpoint in (0, 200):
            grid.revive_node(endpoint)
        results = [grid.route(0, t) for t in grid.labels()[:50] if t != 0]
        grid.repair()
        assert any(not r.success for r in results) or all(r.success for r in results)

    @pytest.mark.parametrize("side", [1, 0, -3])
    def test_a_grid_without_a_second_node_is_refused(self, side):
        with pytest.raises(ValueError, match="side"):
            KleinbergGridNetwork(side=side)

    def test_dead_endpoints(self):
        grid = KleinbergGridNetwork(side=8, seed=0)
        grid.fail_node(10)
        assert not grid.route(10, 20).success
        assert not grid.route(20, 10).success
        grid.repair()


class TestCan:
    @pytest.fixture(scope="class")
    def can(self) -> CanNetwork:
        return CanNetwork(side=16, dimensions=2)

    def test_label_point_roundtrip(self, can):
        for label in [0, 15, 16, 255]:
            assert can.point_to_label(can.label_to_point(label)) == label

    def test_neighbors_count(self, can):
        assert len(can.neighbors_of(0)) == 4
        assert can.state_per_node() == 4

    def test_route_hops_close_to_l1_distance(self, can):
        source, target = 0, can.point_to_label((8, 8))
        result = can.route(source, target)
        assert result.success
        assert result.hops == can.space.distance((0, 0), (8, 8))

    def test_higher_dimensions(self):
        can3 = CanNetwork(side=6, dimensions=3)
        source = 0
        target = can3.point_to_label((3, 3, 3))
        result = can3.route(source, target)
        assert result.success
        assert result.hops == 9

    def test_hop_scaling_is_polynomial_not_log(self):
        small = CanNetwork(side=8, dimensions=2)
        large = CanNetwork(side=32, dimensions=2)
        small_hops = small.route(0, small.point_to_label((4, 4))).hops
        large_hops = large.route(0, large.point_to_label((16, 16))).hops
        assert large_hops == 4 * small_hops

    def test_failures_block_routes(self):
        can = CanNetwork(side=8, dimensions=2)
        # Kill two entire columns so the torus is cut between columns 0 and 6
        # in both directions.
        for row in range(8):
            can.fail_node(can.point_to_label((row, 3)))
            can.fail_node(can.point_to_label((row, 7)))
        result = can.route(can.point_to_label((0, 0)), can.point_to_label((0, 6)))
        assert not result.success
        can.repair()
        assert can.route(can.point_to_label((0, 0)), can.point_to_label((0, 6))).success


class TestPlaxton:
    @pytest.fixture(scope="class")
    def plaxton(self) -> PlaxtonNetwork:
        return PlaxtonNetwork(digits=5, base=4)

    def test_digits_roundtrip(self, plaxton):
        for label in [0, 5, 255, 1023]:
            assert plaxton.label_from_digits(plaxton.digits_of(label)) == label

    def test_shared_prefix_length(self, plaxton):
        a = plaxton.label_from_digits([1, 2, 3, 0, 0])
        b = plaxton.label_from_digits([1, 2, 0, 0, 0])
        assert plaxton.shared_prefix_length(a, b) == 2
        assert plaxton.shared_prefix_length(a, a) == 5

    def test_route_within_digit_count(self, plaxton):
        result = plaxton.route(0, plaxton.size - 1)
        assert result.success
        assert result.hops <= plaxton.digits

    def test_route_to_self(self, plaxton):
        assert plaxton.route(7, 7).hops == 0

    def test_state_per_node(self, plaxton):
        assert plaxton.state_per_node() == 3 * 5

    def test_failure_on_path_blocks_route(self):
        plaxton = PlaxtonNetwork(digits=3, base=2)
        source, target = 0, 7
        path = plaxton.route(source, target).path
        victim = path[1]
        plaxton.fail_node(victim)
        assert not plaxton.route(source, target).success
        plaxton.repair()

    def test_all_pairs_reachable_small(self):
        plaxton = PlaxtonNetwork(digits=3, base=3)
        for source in range(0, 27, 5):
            for target in range(0, 27, 7):
                assert plaxton.route(source, target).success


class TestChordStabilize:
    def test_batched_tables_match_scalar_build(self):
        chord = ChordNetwork(bits=7, members=list(range(0, 128, 3)))
        fingers, successors = scalar_chord_tables(chord)
        assert chord._finger_matrix.tolist() == [fingers[label] for label in chord.members]
        assert [
            [entry for entry in row if entry >= 0] for row in chord._successor_matrix.tolist()
        ] == [successors[label] for label in chord.members]

    def test_stabilize_matches_fresh_ring_over_survivors(self):
        chord = ChordNetwork(bits=6)
        chord.fail_fraction(0.4, seed=7)
        live = chord.labels(only_alive=True)
        chord.stabilize()
        fresh = ChordNetwork(bits=6, members=live)
        assert chord.members == fresh.members
        np.testing.assert_array_equal(chord._finger_matrix, fresh._finger_matrix)
        np.testing.assert_array_equal(chord._successor_matrix, fresh._successor_matrix)

    def test_stabilize_with_zero_live_members_is_a_noop(self):
        chord = ChordNetwork(bits=4, members=[1, 5, 9])
        for label in (1, 5, 9):
            chord.fail_node(label)
        chord.stabilize()
        assert chord.members == [1, 5, 9]
        assert chord.labels(only_alive=True) == []

    def test_stabilize_with_one_live_member_is_a_noop(self):
        chord = ChordNetwork(bits=4, members=[1, 5, 9])
        chord.fail_node(1)
        chord.fail_node(5)
        before_fingers = chord._finger_matrix.copy()
        chord.stabilize()
        assert chord.members == [1, 5, 9]
        np.testing.assert_array_equal(chord._finger_matrix, before_fingers)


# --------------------------------------------------------------------------- #
# The array tables against the per-label oracle
# --------------------------------------------------------------------------- #


@st.composite
def table_overlays(draw):
    """A table overlay at one of its smallest shapes, with failed nodes and links."""
    protocol = draw(st.sampled_from(["can", "plaxton", "chord", "kleinberg"]))
    if protocol == "can":
        overlay = CanNetwork(side=draw(st.integers(1, 9)), dimensions=draw(st.integers(1, 3)))
    elif protocol == "plaxton":
        overlay = PlaxtonNetwork(digits=draw(st.integers(1, 4)), base=draw(st.integers(2, 5)))
    elif protocol == "kleinberg":
        overlay = KleinbergGridNetwork(
            side=draw(st.integers(2, 9)),
            links_per_node=draw(st.integers(1, 5)),
            seed=draw(st.integers(0, 2**16)),
        )
    else:
        bits = draw(st.integers(1, 9))
        members = draw(
            st.none() | st.lists(st.integers(0, (1 << bits) - 1), min_size=2, max_size=40, unique=True)
        )
        overlay = ChordNetwork(bits=bits, members=members)
        if draw(st.booleans()):
            overlay.fail_fraction(draw(st.floats(0.0, 0.6)), seed=draw(st.integers(0, 99)))
            overlay.stabilize()
    overlay.fail_fraction(draw(st.floats(0.0, 0.5)), seed=draw(st.integers(0, 99)))
    members = overlay.labels(only_alive=False)
    entries = scalar_neighbor_entries(overlay)
    for holder_index, slot in draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=6)):
        holder = members[holder_index % len(members)]
        row = [neighbor for neighbor, _ in entries(holder)]
        if row:
            overlay.fail_link(holder, row[slot % len(row)])
    if draw(st.booleans()):
        # A pair no table holds, and one naming a label outside the space.
        overlay.fail_link(members[0], members[0])
        overlay.fail_link(members[-1], overlay.space.size() + 1)
    return overlay, entries


class TestTablesMatchScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(table_overlays())
    def test_snapshot_and_rows_match_the_per_label_build(self, case):
        overlay, entries = case
        assert_snapshots_identical(overlay.compile_snapshot(), scalar_compile_snapshot(overlay, entries))
        for label in overlay.labels(only_alive=False):
            row = [neighbor for neighbor, _ in entries(label)]
            if isinstance(overlay, ChordNetwork):
                row = list(dict.fromkeys(row))
            assert overlay.neighbors_of(label) == row, label
        if isinstance(overlay, ChordNetwork):
            assert overlay.average_table_size() == scalar_chord_average_table_size(overlay)

    @pytest.mark.parametrize("side,links", [(2, 3), (3, 5), (16, 8), (33, 4)])
    def test_kleinberg_contacts_are_the_per_node_choice_draws(self, side, links):
        grid = KleinbergGridNetwork(side=side, links_per_node=links, seed=11)
        contacts = scalar_kleinberg_contacts(grid)
        assert [grid.contacts_of(label) for label in range(grid.size)] == [
            contacts[label] for label in range(grid.size)
        ]

    def test_kleinberg_contacts_across_row_chunks(self, monkeypatch):
        # Seven-row chunks split a 64-node grid unevenly.
        monkeypatch.setattr(kleinberg_grid, "_CHUNK_ENTRIES", 7 * 64)
        grid = KleinbergGridNetwork(side=8, links_per_node=6, seed=4)
        contacts = scalar_kleinberg_contacts(grid)
        assert [grid.contacts_of(label) for label in range(grid.size)] == [
            contacts[label] for label in range(grid.size)
        ]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 6),
        st.integers(0, 2**16),
    )
    def test_rowwise_search_is_searchsorted_right(self, width, queries, seed):
        rng = np.random.default_rng(seed)
        # Coarse values, so ties between rows and queries are common.
        rows = np.sort(rng.integers(0, 8, size=(5, width)) / 8.0, axis=1)
        values = rng.integers(-1, 10, size=(5, queries)) / 8.0
        expected = [np.searchsorted(row, value, side="right") for row, value in zip(rows, values)]
        np.testing.assert_array_equal(kleinberg_grid._searchsorted_rows(rows, values), expected)
