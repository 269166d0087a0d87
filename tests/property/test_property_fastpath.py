"""Property-based parity tests: fastpath engine vs the scalar GreedyRouter.

The fastpath contract (see :mod:`repro.fastpath`) is *hop-for-hop* equality
with the object engine for every configuration the batch router supports:
same paths, same hop counts, same success verdicts, same failure reasons,
same detour draws, same backtrack moves — for all three Section-6 recovery
strategies, with and without node failures.  These tests generate random
topologies, seeds, and failure levels and assert exactly that, plus the
direct-build contract: :func:`repro.fastpath.build_snapshot` emits
bit-identical snapshots to the object build path at every seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.baselines import CanNetwork, ChordNetwork, KleinbergGridNetwork, PlaxtonNetwork
from repro.core.builder import build_ideal_network
from repro.core.failures import NodeFailureModel
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.core.routing import FailureReason, GreedyRouter, RecoveryStrategy
from repro.fastpath import (
    FAILURE_CODES,
    BatchGreedyRouter,
    FastpathSnapshot,
    build_snapshot,
    compile_snapshot,
)
from repro.fastpath.batch_router import _PrefixTable
from repro.fastpath.builder import _first_occurrences
from repro.fastpath.dtypes import INDEX_DTYPE, label_dtype
from repro.simulation.workload import LookupWorkload


def _csr_row(snapshot, index: int) -> np.ndarray:
    """Neighbour indices of the vertex at ``index``: its slice of the CSR."""
    indptr = snapshot.neighbor_indptr
    return snapshot.neighbor_indices[indptr[index]:indptr[index + 1]]


@st.composite
def routed_scenario(draw):
    """A random topology plus a routed workload over its live nodes."""
    exponent = draw(st.integers(min_value=5, max_value=9))
    n = 1 << exponent
    seed = draw(st.integers(min_value=0, max_value=40))
    links = draw(st.integers(min_value=1, max_value=8))
    failure_level = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7]))
    queries = draw(st.integers(min_value=5, max_value=40))
    return n, seed, links, failure_level, queries


def _assert_parity(
    graph, pairs, recovery=RecoveryStrategy.TERMINATE, seed=0, snapshot=None, backtrack_depth=5,
    symmetric=True, hop_limit=None,
):
    """Assert hop-for-hop equality between the two engines on ``pairs``.

    The scalar router routes the batch sequentially through one instance (one
    shared re-route stream), which is exactly the draw order the batch engine
    reproduces.  ``snapshot`` (default: a fresh compile of ``graph``) lets a
    case route a liveness-masked snapshot against the mutated graph; it must
    be compiled with the same ``symmetric`` neighbour knowledge; ``hop_limit``
    (default: the space's) goes to both routers.  Returns the scalar paths for
    the case's own check.
    """
    scalar = GreedyRouter(
        graph,
        recovery=recovery,
        backtrack_depth=backtrack_depth,
        hop_limit=hop_limit,
        symmetric_neighbors=symmetric,
        seed=seed,
    )
    if snapshot is None:
        snapshot = compile_snapshot(graph, symmetric_neighbors=symmetric)
    assert snapshot.symmetric_neighbors == symmetric
    batch = BatchGreedyRouter(
        snapshot,
        recovery=recovery,
        backtrack_depth=backtrack_depth,
        hop_limit=hop_limit,
        seed=seed,
        reroute_pool=graph.labels(only_alive=True)
        if recovery is RecoveryStrategy.RANDOM_REROUTE
        else None,
    )
    result = batch.route_pairs(pairs, record_paths=True)
    assert batch.hop_limit == scalar.hop_limit
    references = scalar.route_many(pairs)
    for index, reference in enumerate(references):
        assert bool(result.success[index]) == reference.success
        assert int(result.hops[index]) == reference.hops
        assert result.paths[index] == reference.path
        assert int(result.final[index]) == reference.path[-1]
        assert result.failure_codes[index] == FAILURE_CODES[reference.failure_reason]
        assert int(result.reroutes[index]) == reference.reroutes
        assert int(result.backtracks[index]) == reference.backtracks
    return [reference.path for reference in references]


class TestHopForHopParity:
    @settings(max_examples=25, deadline=None)
    @given(routed_scenario())
    def test_failure_free(self, scenario):
        n, seed, links, _level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        pairs = LookupWorkload(seed=seed + 1).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(graph, pairs)

    @settings(max_examples=25, deadline=None)
    @given(routed_scenario(), st.booleans())
    def test_under_node_failures(self, scenario, symmetric):
        n, seed, links, level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        model = NodeFailureModel(level, seed=seed + 7)
        model.apply(graph)
        pairs = LookupWorkload(seed=seed + 1).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(graph, pairs, symmetric=symmetric)
        model.repair(graph)

    @settings(max_examples=25, deadline=None)
    @given(
        routed_scenario(),
        st.sampled_from([RecoveryStrategy.RANDOM_REROUTE, RecoveryStrategy.BACKTRACK]),
        st.sampled_from([1, 2, 5, 20]),
        st.booleans(),
    )
    def test_recovery_strategies_under_node_failures(self, scenario, recovery, depth, symmetric):
        """Re-route and backtracking (at any history depth) are hop-for-hop identical."""
        n, seed, links, level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        model = NodeFailureModel(level, seed=seed + 19)
        model.apply(graph)
        pairs = LookupWorkload(seed=seed + 4).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(
            graph, pairs, recovery=recovery, seed=seed + 23, backtrack_depth=depth,
            symmetric=symmetric,
        )
        model.repair(graph)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        level=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_dead_endpoints_report_identically(self, seed, level):
        graph = build_ideal_network(128, seed=seed).graph
        model = NodeFailureModel(level, seed=seed + 3)
        model.apply(graph)
        dead = [label for label in graph.labels() if not graph.is_alive(label)]
        live = graph.labels(only_alive=True)
        pairs = []
        if dead and live:
            pairs = [(dead[0], live[0]), (live[0], dead[0]), (dead[0], dead[-1])]
        if pairs:
            _assert_parity(graph, pairs)
        model.repair(graph)


class TestEveryWayOffTheForwardFrontier:
    """Small hop limits under failures: a query leaves the batch router's
    frontier by arriving, getting stuck, running out of hops, or freezing for
    a detour it then follows to the target or into the hop limit."""

    @pytest.mark.parametrize("hop_limit", [1, 2, 3, 8])
    @pytest.mark.parametrize("recovery", list(RecoveryStrategy), ids=lambda r: r.value)
    @settings(max_examples=8, deadline=None)
    @given(routed_scenario(), st.booleans())
    def test_parity_at_small_hop_limits(self, recovery, hop_limit, scenario, symmetric):
        n, seed, links, level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        model = NodeFailureModel(level, seed=seed + 29)
        model.apply(graph)
        pairs = LookupWorkload(seed=seed + 5).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(
            graph, pairs, recovery=recovery, seed=seed + 31, symmetric=symmetric,
            hop_limit=hop_limit,
        )
        model.repair(graph)

    def test_one_batch_takes_every_exit(self):
        graph = build_ideal_network(128, links_per_node=2, seed=2).graph
        NodeFailureModel(0.3, seed=9).apply(graph)
        pairs = LookupWorkload(seed=3).pairs(graph.labels(only_alive=True), 60)
        _assert_parity(graph, pairs, RecoveryStrategy.RANDOM_REROUTE, seed=2, hop_limit=8)
        router = GreedyRouter(
            graph, recovery=RecoveryStrategy.RANDOM_REROUTE, hop_limit=8, seed=2
        )
        exits = {(route.reroutes, route.failure_reason) for route in router.route_many(pairs)}
        assert exits >= {
            (0, FailureReason.NONE),
            (0, FailureReason.HOP_LIMIT),
            (1, FailureReason.NONE),
            (1, FailureReason.HOP_LIMIT),
            (1, FailureReason.STUCK),
        }


class TestPickThenRepair:
    """The step reads liveness at its pick and re-keys only the rows it rules out."""

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("recovery", list(RecoveryStrategy))
    def test_dead_best_then_dead_edge_then_parallel_link(self, recovery, symmetric):
        """Best candidate dead, second behind a dead edge, its parallel twin usable."""
        graph = OverlayGraph(RingMetric(64))
        for label in range(64):
            graph.add_node(label)
        graph.wire_ring()
        for target in (24, 12, 12, 8):
            graph.add_long_link(0, target)
        # Compiled before the faults, so row 0 holds both parallel entries to
        # 12; the faults then reach the batch side as masks only.
        snapshot = compile_snapshot(graph, symmetric_neighbors=symmetric)
        twins = np.flatnonzero(_csr_row(snapshot, 0) == 12)
        assert twins.size == 2
        edge_alive = np.ones(snapshot.neighbor_indices.shape[0], dtype=bool)
        edge_alive[snapshot.neighbor_indptr[0] + twins[0]] = False
        alive = snapshot.alive.copy()
        alive[24] = False
        graph.fail_node(24)
        assert graph.fail_long_link(0, 12)
        # 0 -> 20: 24 is closest (dead), then 12 twice (first link dead);
        # 0 -> 12: the best candidate itself sits behind the dead link;
        # 30 -> 23: walks into the dead node and needs the recovery strategy.
        with telemetry.session() as tel:
            _assert_parity(
                graph, [(0, 20), (0, 12), (30, 23)], recovery=recovery, seed=5,
                snapshot=snapshot.with_alive(alive).with_edge_alive(edge_alive),
                symmetric=symmetric,
            )
        assert tel.counters["route.rows_repaired"].value >= 1


def _wired(space, links=(), dead=()) -> OverlayGraph:
    """Every point of ``space`` wired in label order (a ring wraps, a line
    does not), plus extra long links (parallel ones allowed) and dead nodes."""
    graph = OverlayGraph(space)
    for label in range(space.size()):
        graph.add_node(label)
    graph.wire_ring()
    for source, target in links:
        graph.add_long_link(source, target)
    for label in dead:
        graph.fail_node(label)
    return graph


def _ring(links, dead=(), size=64) -> OverlayGraph:
    """A wired ring with extra long links (parallel ones allowed) and dead nodes."""
    return _wired(RingMetric(size), links, dead)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("space", [RingMetric(64)], ids=["ring"])
class TestOneGreedyRule:
    """The one greedy rule on both engines: a hop may land on either side of
    the target, a dead neighbour is skipped, and a tie goes to the first slot."""

    def test_a_hop_may_overshoot_the_target(self, space, symmetric):
        # 31 sits past the target 30 but one away from it; 21 is nine away.
        paths = _assert_parity(_wired(space, [(20, 31)]), [(20, 30)], symmetric=symmetric)
        assert paths == [[20, 31, 30]]

    @pytest.mark.parametrize("recovery", list(RecoveryStrategy))
    def test_a_dead_best_neighbour_is_skipped_without_recovery(self, space, symmetric, recovery):
        # 26 is the best candidate but dead; the node takes the live 24
        # itself, so no strategy is called on.
        graph = _wired(space, [(20, 26), (20, 24)], dead=[26])
        paths = _assert_parity(graph, [(20, 25)], recovery, seed=7, symmetric=symmetric)
        assert paths == [[20, 24, 25]]

    @pytest.mark.parametrize("recovery", list(RecoveryStrategy))
    def test_only_dead_closer_neighbours_call_on_recovery(self, space, symmetric, recovery):
        # 20's closer neighbours (21 and 26) are both dead: the walk is stuck
        # there, and only the strategy decides what follows.
        graph = _wired(space, [(10, 20), (20, 26)], dead=[21, 26])
        paths = _assert_parity(graph, [(10, 25)], recovery, seed=7, symmetric=symmetric)
        assert paths[0][:2] == [10, 20]
        if recovery is RecoveryStrategy.TERMINATE:
            assert paths == [[10, 20]]
        if recovery is RecoveryStrategy.BACKTRACK:
            assert paths[0][:4] == [10, 20, 10, 11]
        if recovery is RecoveryStrategy.RANDOM_REROUTE:
            router = GreedyRouter(graph, recovery=recovery, symmetric_neighbors=symmetric, seed=7)
            assert router.route(10, 25).reroutes == 1

    @pytest.mark.parametrize("first", [28, 32])
    def test_a_tie_across_the_target_goes_to_the_first_listed_link(self, space, symmetric, first):
        # 28 and 32 both sit two from the target 30.
        links = [(20, first), (20, 60 - first)]
        paths = _assert_parity(_wired(space, links), [(20, 30)], symmetric=symmetric)
        step = 1 if first < 30 else -1
        assert paths == [[20, first, first + step, 30]]


def _revisit_parity(graph, pairs, symmetric, snapshot=None, backtrack_depth=5):
    """Backtracking parity on ``pairs``; returns the scalar paths for the case's own check."""
    with telemetry.session() as tel:
        paths = _assert_parity(
            graph, pairs, recovery=RecoveryStrategy.BACKTRACK, snapshot=snapshot,
            symmetric=symmetric, backtrack_depth=backtrack_depth,
        )
    assert tel.counters["route.rows_revisited"].value >= 1
    return paths


@pytest.mark.parametrize("symmetric", [True, False])
class TestBacktrackRevisits:
    """A revisited row is re-keyed against its node's tried set: every usable
    slot at or before the last consumed one in (key, slot) order, and every
    twin of their labels, is blocked before the pick."""

    def test_a_consumed_twin_is_not_offered(self, symmetric):
        # 0 lists 16 twice; 16 is a dead end (17 dead), so 0 is revisited and
        # must move on to 1, not to the second 16.
        paths = _revisit_parity(_ring([(0, 16), (0, 16)], dead=[17]), [(0, 20)], symmetric)
        assert paths[0][:4] == [0, 16, 0, 1]

    def test_the_other_side_of_a_two_sided_tie_is_still_offered(self, symmetric):
        # 16 and 24 both sit 4 from the target; consuming the first-listed one
        # leaves the other untried.
        paths = _revisit_parity(_ring([(0, 16), (0, 24)], dead=[17, 23]), [(0, 20)], symmetric)
        assert paths[0][:6] == [0, 16, 0, 24, 0, 1]

    def test_an_exhausted_node_is_revisited(self, symmetric):
        # Every candidate of 16 (17, and 18 through a link) is dead: the node
        # is exhausted on its first visit and stuck on the next.
        paths = _revisit_parity(_ring([(0, 16), (16, 18)], dead=[17, 18]), [(0, 20)], symmetric)
        assert paths[0].count(16) == 2

    def test_a_node_that_ran_out_stays_out(self, symmetric):
        # 16 tries 18 and 17 (both dead ends once 19 is dead) and runs out;
        # reached again through 8 it has nothing left.
        graph = _ring([(0, 16), (0, 8), (8, 16), (16, 18)], dead=[19])
        paths = _revisit_parity(graph, [(0, 20)], symmetric)
        assert paths[0][:12] == [0, 16, 18, 16, 17, 18, 17, 16, 0, 8, 16, 8]

    def test_a_consumed_dead_best_yields_the_next_best(self, symmetric):
        # 16's best (18) is dead: the node consumes it and takes 17 at once.
        # The second pair gives the case its revisits.
        graph = _ring([(0, 16), (16, 18), (17, 19), (32, 44)], dead=[18, 45])
        paths = _revisit_parity(graph, [(0, 20), (32, 48)], symmetric)
        assert paths[0][-4:] == [16, 17, 19, 20]
        assert paths[0].count(16) == 1

    def test_nodes_fall_out_of_the_window_before_the_revisits(self, symmetric):
        # Ten hops in, 18 is stuck (19 dead) and the walk backs up through the
        # five-deep window; 0, 10, 11 and 12 have left it.  Forward hops
        # strictly close in on the target, so a forgotten node is never
        # reached again — the revisits after the overflow are the case.
        paths = _revisit_parity(_ring([(0, 10)], dead=[19]), [(0, 20)], symmetric)
        assert paths[0] == [0, 10, 11, 12, 13, 14, 15, 16, 17, 18, 17, 16, 15, 14, 13]

    def test_a_deep_window_outgrows_the_tried_table(self, symmetric, monkeypatch):
        # Eleven ring hops (0 to 11) store a tried-set per node; the ninth
        # outgrows the table's eight initial entries.  12 is dead, so the
        # walk backs up through the nine-deep window to 2, whose tried-set
        # was stored before the table grew, and takes the tie it listed
        # after 3: 37 sits 17 from the target too.
        grown = []
        grow = _PrefixTable._grow
        monkeypatch.setattr(
            _PrefixTable, "_grow", lambda table: (grown.append(table._nodes.shape[1]), grow(table))
        )
        paths = _revisit_parity(
            _ring([(2, 37)], dead=[12]), [(0, 20)], symmetric, backtrack_depth=9
        )
        assert paths[0] == [*range(12), *range(10, 1, -1), *range(37, 19, -1)]
        assert grown[:1] == [8]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_the_window_holds_backtrack_depth_nodes(self, symmetric, depth):
        # The case above at shallower windows: every node behind the stuck 18
        # has only farther candidates left, so the walk backs up once per
        # remembered node and fails when the window is empty.
        paths = _assert_parity(
            _ring([(0, 10)], dead=[19]), [(0, 20)], RecoveryStrategy.BACKTRACK,
            backtrack_depth=depth, symmetric=symmetric,
        )
        assert paths[0] == [0, *range(10, 19), *range(17, 17 - depth, -1)]

    def test_a_dead_first_twin_under_an_edge_mask(self, symmetric):
        # Row 0 holds 12 twice with 28 between them, both 8 from the target;
        # the first 12's link is dead (a mask on a snapshot compiled before
        # the faults), so the tie goes to 28.  Every long neighbour is a dead
        # end: a dead link is never a candidate, so consuming 28 must not
        # consume the 12 listed before it.
        graph = _ring([(0, 16), (0, 12), (0, 28), (0, 12)])
        snapshot = compile_snapshot(graph, symmetric_neighbors=symmetric)
        twins = np.flatnonzero(_csr_row(snapshot, 0) == 12)
        edge_alive = np.ones(snapshot.neighbor_indices.shape[0], dtype=bool)
        edge_alive[snapshot.neighbor_indptr[0] + twins[0]] = False
        alive = snapshot.alive.copy()
        for label in (13, 17, 27):
            alive[label] = False
            graph.fail_node(label)
        assert graph.fail_long_link(0, 12)
        paths = _revisit_parity(
            graph, [(0, 20)], symmetric,
            snapshot=snapshot.with_alive(alive).with_edge_alive(edge_alive),
        )
        assert paths[0][:8] == [0, 16, 0, 28, 0, 12, 0, 1]


def _sparse_ring(links, dead=(), size=128) -> OverlayGraph:
    """Members at multiples of ten up to 60, joined only by ``links``: no ring
    pointers, so a node can have every neighbour farther from a target.  The
    members span less than half the ring, so no distance wraps."""
    graph = OverlayGraph(RingMetric(size))
    for label in range(0, 61, 10):
        graph.add_node(label)
    for source, target in links:
        graph.add_long_link(source, target)
    for label in dead:
        graph.fail_node(label)
    return graph


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("recovery", list(RecoveryStrategy))
class TestRawMinimumNotAdmissible:
    """Rows whose first raw minimum keys at or above the bound have no hop."""

    def test_every_neighbour_is_farther(self, recovery, symmetric):
        # 0 -> 30 reaches 20, whose neighbours sit 10 (a tie with 20's own
        # distance) and 30 away: a local minimum.  10's one neighbour ties too.
        graph = _sparse_ring([(0, 20), (0, 50), (20, 40), (20, 0), (50, 30), (10, 50)])
        pairs = [(0, 30), (10, 30)]
        paths = _assert_parity(graph, pairs, recovery, seed=3, symmetric=symmetric)
        assert paths[0][:2] == [0, 20] and paths[1][0] == 10
        if recovery is RecoveryStrategy.TERMINATE:
            assert paths == [[0, 20], [10]]
        if recovery is RecoveryStrategy.BACKTRACK:
            assert paths[0] == [0, 20, 0, 50, 30]

    def test_dead_best_and_farther_live_neighbours(self, recovery, symmetric):
        # At 10 the best candidate (20) is dead and the only live neighbour
        # (0) is farther: the repair re-keys the row and finds no hop.
        graph = _sparse_ring([(0, 10), (10, 20), (10, 0), (20, 30)], dead=[20])
        with telemetry.session() as tel:
            paths = _assert_parity(graph, [(0, 30)], recovery, seed=3, symmetric=symmetric)
        assert paths[0][:2] == [0, 10] and 20 not in paths[0]
        if recovery is RecoveryStrategy.BACKTRACK:
            assert paths[0] == [0, 10, 0]
        assert tel.counters["route.rows_repaired"].value >= 1

    def test_a_revisited_row_has_only_farther_slots_left(self, recovery, symmetric):
        # 20 is a dead end (its one neighbour is farther); back at 10 the only
        # untried slot (0) is farther as well.
        graph = _sparse_ring([(0, 10), (10, 20), (10, 0), (20, 10)])
        with telemetry.session() as tel:
            paths = _assert_parity(graph, [(0, 30)], recovery, seed=3, symmetric=symmetric)
        if recovery is RecoveryStrategy.BACKTRACK:
            assert paths[0] == [0, 10, 20, 10, 0]
            assert tel.counters["route.rows_revisited"].value >= 1
        else:
            assert paths[0][:3] == [0, 10, 20]


class TestBacktrackOnDuplicateDenseGraphs:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=32, max_value=64),
        links=st.integers(min_value=6, max_value=9),
        level=st.floats(min_value=0.4, max_value=0.6),
    )
    def test_parity(self, seed, n, links, level):
        """Parallel links everywhere, nodes and links failed before compile."""
        rng = np.random.default_rng(seed)
        graph = OverlayGraph(RingMetric(n))
        for label in range(n):
            graph.add_node(label)
        graph.wire_ring()
        for source in range(n):
            # Targets near the source collide often; every other link is doubled.
            offsets = rng.integers(1, n // 4, size=links)
            for offset in offsets.tolist():
                for _ in range(1 + int(rng.integers(0, 2))):
                    graph.add_long_link(source, (source + offset) % n)
        for label in rng.choice(n, size=int(level * n), replace=False).tolist():
            graph.fail_node(label)
        for source in rng.choice(n, size=n // 4, replace=False).tolist():
            target = graph.node(source).long_links[0].target
            graph.fail_long_link(source, target)
        live = graph.labels(only_alive=True)
        if len(live) < 2:
            return
        pairs = LookupWorkload(seed=seed).pairs(live, 30)
        _assert_parity(graph, pairs, recovery=RecoveryStrategy.BACKTRACK)


def _sparse_overlay(seed: int) -> OverlayGraph:
    """A sparse graph-compiled ring: uneven degrees, non-contiguous labels."""
    rng = np.random.default_rng(seed)
    size = 200
    graph = OverlayGraph(RingMetric(size))
    members = sorted(rng.choice(size, size=60, replace=False).tolist())
    for label in members:
        graph.add_node(label)
    graph.wire_ring()
    for source in members[::3]:
        for target in rng.choice(members, size=int(rng.integers(1, 6))).tolist():
            if target != source:
                graph.add_long_link(source, target)
    return graph


def _snapshots(seed: int):
    """A graph-compiled ring snapshot plus the four protocol snapshots."""
    return [
        compile_snapshot(_sparse_overlay(seed)),
        ChordNetwork(bits=6, members=list(range(0, 64, 3))).compile_snapshot(),
        CanNetwork(side=5, dimensions=2).compile_snapshot(),
        PlaxtonNetwork(digits=3, base=3).compile_snapshot(),
        KleinbergGridNetwork(side=6, links_per_node=2, seed=seed).compile_snapshot(),
    ]


class TestLabelMatrix:
    """The router's one derived view: slot-aligned with the CSR, self-padded."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=40))
    def test_rows_follow_the_csr_and_pad_with_own_label(self, seed):
        for snapshot in _snapshots(seed):
            matrix = snapshot.label_matrix()
            degrees = snapshot.degrees()
            assert matrix.shape == (snapshot.num_nodes, max(int(degrees.max()), 1))
            assert matrix.dtype == label_dtype(snapshot.space_size)
            for vertex in range(snapshot.num_nodes):
                degree = int(degrees[vertex])
                neighbors = _csr_row(snapshot, vertex)
                assert np.array_equal(matrix[vertex, :degree], snapshot.labels[neighbors])
                assert (matrix[vertex, degree:] == snapshot.labels[vertex]).all()
            # Liveness variants share the one matrix object.
            dead = snapshot.alive.copy()
            dead[::2] = False
            edges = np.ones(snapshot.neighbor_indices.shape[0], dtype=bool)
            edges[::3] = False
            assert snapshot.with_alive(dead).label_matrix() is matrix
            assert snapshot.with_edge_alive(edges).label_matrix() is matrix


class TestDirectBuildEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        exponent=st.integers(min_value=2, max_value=10),
        links=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=60),
        symmetric=st.booleans(),
    )
    def test_direct_build_equals_object_build_plus_compile(
        self, exponent, links, seed, symmetric
    ):
        """``build_snapshot`` is bit-identical to build + compile at any seed."""
        n = 1 << exponent
        compiled = compile_snapshot(
            build_ideal_network(n, links_per_node=links, seed=seed).graph,
            symmetric_neighbors=symmetric,
        )
        direct = build_snapshot(
            n, links_per_node=links, seed=seed, symmetric_neighbors=symmetric
        )
        assert compiled.kind == direct.kind == "ring"
        assert compiled.space_size == direct.space_size
        assert np.array_equal(compiled.labels, direct.labels)
        assert np.array_equal(compiled.alive, direct.alive)
        assert np.array_equal(compiled.neighbor_indptr, direct.neighbor_indptr)
        assert np.array_equal(compiled.neighbor_indices, direct.neighbor_indices)


def _first_occurrences_by_sort(block: np.ndarray) -> np.ndarray:
    """Frozen reference: the row sort the column comparison replaced.

    One sort of the row keys ``value << shift | slot`` orders a row by value
    and, among equal values, by slot, so a slot is a repeat exactly when its
    value equals its predecessor's in that order.
    """
    width = block.shape[1]
    shift = max(width - 1, 1).bit_length()
    keys = block.astype(np.int64)
    keys <<= shift
    keys |= np.arange(width, dtype=np.int64)
    keys.sort(axis=1)
    slot = keys & ((1 << shift) - 1)
    keys >>= shift
    row, rank = np.nonzero(keys[:, 1:] == keys[:, :-1])
    first = np.ones(block.shape, dtype=bool)
    first[row, slot[row, rank + 1]] = False
    return first


class TestFirstOccurrences:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=12),
        width=st.integers(min_value=1, max_value=20),
        largest=st.sampled_from([0, 1, 3, 40, (1 << 31) - 1]),
        data=st.data(),
    )
    def test_equals_the_row_sort(self, rows, width, largest, data):
        """The column comparison marks the same first occurrences as a row sort.

        ``largest`` 0 makes every row all-equal; small ranges make repeats
        common, the largest index makes the packed sort keys exceed int32.
        """
        values = data.draw(
            st.lists(st.integers(min_value=0, max_value=largest),
                     min_size=rows * width, max_size=rows * width)
        )
        # A strided view, as the builder passes its long-link columns.
        slots = np.zeros((rows, width + 2), dtype=INDEX_DTYPE)
        slots[:, 2:] = np.array(values, dtype=INDEX_DTYPE).reshape(rows, width)
        block = slots[:, 2:]
        first = _first_occurrences(block)
        assert first.shape == block.shape and first.dtype == np.dtype(bool)
        assert first.tolist() == _first_occurrences_by_sort(block).tolist()


def _untried_keys_by_label_cube(snapshot, vertices, keyed, bound, blocked, last):
    """Frozen reference: the revisit pass that compared every slot's label
    with every consumed slot's label in one ``(rows, width, width)`` cube."""
    width = keyed.shape[1]
    usable = keyed < bound[:, None]
    if snapshot.edge_alive is not None:
        slots = snapshot.neighbor_indptr[vertices][:, None] + np.arange(width, dtype=np.int64)
        slots = np.minimum(slots, snapshot.neighbor_indices.shape[0] - 1)
        usable &= np.take(snapshot.edge_alive, slots)
    row = np.arange(vertices.shape[0], dtype=np.int64)
    threshold = np.where(
        last < width, np.take(keyed, row * width + np.minimum(last, width - 1)), blocked
    )
    column = np.arange(width, dtype=np.int64)
    consumed = usable & (
        (keyed < threshold[:, None])
        | ((keyed == threshold[:, None]) & (column <= last[:, None]))
    )
    labels = np.take(snapshot.label_matrix(), vertices, axis=0)
    seen = ((labels[:, :, None] == labels[:, None, :]) & consumed[:, None, :]).any(axis=2)
    return np.where(usable & ~seen, keyed, blocked)


@st.composite
def revisited_rows(draw):
    """A small hand-made CSR snapshot and revisited rows keyed over it.

    Few vertices make parallel links (the same neighbour twice in a row, as
    Chord's class-keyed twins are) common, and each copy draws its own key;
    a narrow key range makes ties at the threshold common.  Rows repeat
    vertices, run out of candidates (``last`` = width), and their padding
    slots key at or above the bound, as every policy keys them.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    space_size = draw(st.sampled_from([64, (1 << 33) + 5]))
    labels = np.array(
        sorted(draw(st.lists(st.integers(0, space_size - 1), min_size=n, max_size=n, unique=True))),
        dtype=label_dtype(space_size),
    )
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))
    indices = [
        draw(st.lists(st.integers(0, n - 2), min_size=degree, max_size=degree))
        for degree in degrees
    ]
    # Neighbour k of vertex v is vertex k, skipping v itself.
    indices = np.array(
        [k + (k >= v) for v, row in enumerate(indices) for k in row], dtype=np.int32
    )
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int32)
    edge_alive = None
    if draw(st.booleans()):
        edge_alive = np.array(
            draw(st.lists(st.booleans(), min_size=indices.size, max_size=indices.size)), dtype=bool
        )
    snapshot = FastpathSnapshot(
        kind="ring", space_size=space_size, labels=labels, alive=np.ones(n, dtype=bool),
        neighbor_indptr=indptr, neighbor_indices=indices, edge_alive=edge_alive,
    )
    width = snapshot.label_matrix().shape[1]
    rows = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    top = draw(st.sampled_from([3, 8]))
    blocked = dtype(top + 1)
    vertices = np.array(draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)))
    bound = np.array(draw(st.lists(st.integers(0, top), min_size=rows, max_size=rows)), dtype=dtype)
    keyed = np.empty((rows, width), dtype=dtype)
    for r in range(rows):
        degree = degrees[vertices[r]]
        keyed[r, :degree] = draw(st.lists(st.integers(0, top), min_size=degree, max_size=degree))
        keyed[r, degree:] = draw(
            st.lists(st.integers(int(bound[r]), top + 1), min_size=width - degree,
                     max_size=width - degree)
        )
    last = np.array(draw(st.lists(st.integers(0, width), min_size=rows, max_size=rows)))
    return snapshot, vertices, keyed, bound, blocked, last


class TestUntriedKeys:
    @settings(max_examples=300, deadline=None)
    @given(case=revisited_rows())
    def test_equals_the_label_cube(self, case):
        """The sorted-pair membership test blocks exactly what the cube did:
        every consumed slot, every twin of one, every dead-edge slot and every
        slot at or above the bound."""
        snapshot, vertices, keyed, bound, blocked, last = case
        router = BatchGreedyRouter(snapshot, recovery=RecoveryStrategy.BACKTRACK)
        got = router._untried_keys(vertices, keyed.copy(), bound, blocked, last)
        want = _untried_keys_by_label_cube(snapshot, vertices, keyed, bound, blocked, last)
        assert got.dtype == keyed.dtype
        assert got.tolist() == want.tolist()


class TestPrefixTable:
    @settings(max_examples=100, deadline=None)
    @given(
        num_queries=st.integers(min_value=1, max_value=4),
        initial_entries=st.integers(min_value=1, max_value=2),
        data=st.data(),
    )
    def test_equals_a_dict_of_dicts(self, num_queries, initial_entries, data):
        """Lookup, store and delete agree with a per-query dict at every step.

        Up to ten nodes per query outgrow one or two initial entries, so the
        table grows mid-sequence; deletes free entries that later stores
        reuse.  Each call names distinct queries, as the router's rounds do.
        """
        table = _PrefixTable(num_queries, initial_entries)
        model: dict[int, dict[int, int]] = {query: {} for query in range(num_queries)}
        subsets = st.lists(
            st.integers(0, num_queries - 1), min_size=1, max_size=num_queries, unique=True
        )
        for _ in range(data.draw(st.integers(1, 30))):
            queries = np.array(data.draw(subsets), dtype=np.int64)
            nodes = np.array(
                data.draw(st.lists(st.integers(0, 9), min_size=queries.size, max_size=queries.size)),
                dtype=np.int64,
            )
            if data.draw(st.integers(0, 3)) == 0:
                table.delete(queries, nodes)
                for query, node in zip(queries.tolist(), nodes.tolist()):
                    model[query].pop(node, None)
                continue
            last, cells = table.lookup(queries, nodes)
            assert last.tolist() == [
                model[query].get(node, -1) for query, node in zip(queries.tolist(), nodes.tolist())
            ]
            stored = np.array(
                data.draw(st.lists(st.integers(0, 7), min_size=queries.size, max_size=queries.size)),
                dtype=np.int64,
            )
            table.store(cells, nodes, stored)
            for query, node, value in zip(queries.tolist(), nodes.tolist(), stored.tolist()):
                model[query][node] = value
        for query in range(num_queries):
            for node in range(10):
                last, _cells = table.lookup(np.array([query]), np.array([node]))
                assert int(last[0]) == model[query].get(node, -1)
            assert table._nodes.shape[1] >= len(model[query])
