"""Unit tests for the baseline systems (Chord, Kleinberg grid, CAN, Plaxton)."""

from __future__ import annotations

import math

import pytest

from repro.baselines.can import CanNetwork
from repro.baselines.chord import ChordNetwork
from repro.baselines.kleinberg_grid import KleinbergGridNetwork
from repro.baselines.plaxton import PlaxtonNetwork


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
        chord.build_routing_tables()
        scalar_fingers = {k: list(v) for k, v in chord._fingers.items()}
        scalar_successors = {k: list(v) for k, v in chord._successors.items()}
        chord._fingers = {}
        chord._successors = {}
        chord.build_routing_tables_batched()
        assert chord._fingers == scalar_fingers
        assert chord._successors == scalar_successors

    def test_stabilize_matches_fresh_ring_over_survivors(self):
        chord = ChordNetwork(bits=6)
        chord.fail_fraction(0.4, seed=7)
        live = chord.labels(only_alive=True)
        chord.stabilize()
        fresh = ChordNetwork(bits=6, members=live)
        assert chord.members == fresh.members
        assert chord._fingers == fresh._fingers
        assert chord._successors == fresh._successors

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
        before_fingers = {k: list(v) for k, v in chord._fingers.items()}
        chord.stabilize()
        assert chord.members == [1, 5, 9]
        assert chord._fingers == before_fingers
