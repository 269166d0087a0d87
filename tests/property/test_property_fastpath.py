"""Property-based parity tests: fastpath engine vs the scalar GreedyRouter.

The fastpath contract (see :mod:`repro.fastpath`) is *hop-for-hop* equality
with the object engine for every configuration the batch router supports:
same paths, same hop counts, same success verdicts, same failure reasons,
same detour draws, same backtrack moves — for both routing modes, all three
Section-6 recovery strategies, with and without node failures, under both
neighbour-knowledge regimes.  These tests generate random topologies, seeds,
and failure levels and assert exactly that, plus the direct-build contract:
:func:`repro.fastpath.build_snapshot` emits bit-identical snapshots to the
object build path at every seed.
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
from repro.core.metric import LineMetric, RingMetric
from repro.core.routing import GreedyRouter, RecoveryStrategy, RoutingMode
from repro.fastpath import BatchGreedyRouter, build_snapshot, compile_snapshot
from repro.fastpath.dtypes import label_dtype
from repro.simulation.workload import LookupWorkload


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
    graph, pairs, mode, strict, recovery=RecoveryStrategy.TERMINATE, seed=0, snapshot=None,
    backtrack_depth=5,
):
    """Assert hop-for-hop equality between the two engines on ``pairs``.

    The scalar router routes the batch sequentially through one instance (one
    shared re-route stream), which is exactly the draw order the batch engine
    reproduces.  ``snapshot`` (default: a fresh compile of ``graph``) lets a
    case route a liveness-masked snapshot against the mutated graph.
    """
    scalar = GreedyRouter(
        graph,
        mode=mode,
        recovery=recovery,
        backtrack_depth=backtrack_depth,
        strict_best_neighbor=strict,
        seed=seed,
    )
    batch = BatchGreedyRouter(
        compile_snapshot(graph) if snapshot is None else snapshot,
        mode=mode,
        recovery=recovery,
        backtrack_depth=backtrack_depth,
        strict_best_neighbor=strict,
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
        assert result.failure_reason(index) == reference.failure_reason
        assert int(result.reroutes[index]) == reference.reroutes
        assert int(result.backtracks[index]) == reference.backtracks


class TestHopForHopParity:
    @settings(max_examples=25, deadline=None)
    @given(routed_scenario(), st.sampled_from(list(RoutingMode)))
    def test_failure_free(self, scenario, mode):
        n, seed, links, _level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        pairs = LookupWorkload(seed=seed + 1).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(graph, pairs, mode, strict=False)

    @settings(max_examples=25, deadline=None)
    @given(routed_scenario(), st.sampled_from(list(RoutingMode)))
    def test_under_node_failures(self, scenario, mode):
        n, seed, links, level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        model = NodeFailureModel(level, seed=seed + 7)
        model.apply(graph)
        pairs = LookupWorkload(seed=seed + 1).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(graph, pairs, mode, strict=False)
        model.repair(graph)

    @settings(max_examples=15, deadline=None)
    @given(routed_scenario(), st.sampled_from(list(RoutingMode)))
    def test_strict_best_neighbor_regime(self, scenario, mode):
        n, seed, links, level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        model = NodeFailureModel(level, seed=seed + 13)
        model.apply(graph)
        pairs = LookupWorkload(seed=seed + 2).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(graph, pairs, mode, strict=True)
        model.repair(graph)

    @settings(max_examples=25, deadline=None)
    @given(
        routed_scenario(),
        st.sampled_from(list(RoutingMode)),
        st.sampled_from([RecoveryStrategy.RANDOM_REROUTE, RecoveryStrategy.BACKTRACK]),
        st.sampled_from([1, 2, 5, 20]),
    )
    def test_recovery_strategies_under_node_failures(self, scenario, mode, recovery, depth):
        """Re-route and backtracking (at any history depth) are hop-for-hop identical."""
        n, seed, links, level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        model = NodeFailureModel(level, seed=seed + 19)
        model.apply(graph)
        pairs = LookupWorkload(seed=seed + 4).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(
            graph, pairs, mode, strict=False, recovery=recovery, seed=seed + 23,
            backtrack_depth=depth,
        )
        model.repair(graph)

    @settings(max_examples=15, deadline=None)
    @given(
        routed_scenario(),
        st.sampled_from([RecoveryStrategy.RANDOM_REROUTE, RecoveryStrategy.BACKTRACK]),
    )
    def test_recovery_strategies_strict_regime(self, scenario, recovery):
        """The strict knowledge regime keeps recovery parity as well."""
        n, seed, links, level, queries = scenario
        graph = build_ideal_network(n, links_per_node=links, seed=seed).graph
        model = NodeFailureModel(level, seed=seed + 29)
        model.apply(graph)
        pairs = LookupWorkload(seed=seed + 6).pairs(graph.labels(only_alive=True), queries)
        _assert_parity(
            graph, pairs, RoutingMode.TWO_SIDED, strict=True,
            recovery=recovery, seed=seed + 31,
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
            _assert_parity(graph, pairs, RoutingMode.TWO_SIDED, strict=False)
        model.repair(graph)


class TestPickThenRepair:
    """The step reads liveness at its pick and re-keys only the rows it rules out."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("recovery", list(RecoveryStrategy))
    def test_dead_best_then_dead_edge_then_parallel_link(self, recovery, strict):
        """Best candidate dead, second behind a dead edge, its parallel twin usable."""
        graph = OverlayGraph(RingMetric(64))
        for label in range(64):
            graph.add_node(label)
        graph.wire_ring()
        for target in (24, 12, 12, 8):
            graph.add_long_link(0, target)
        # Compiled before the faults, so row 0 holds both parallel entries to
        # 12; the faults then reach the batch side as masks only.
        snapshot = compile_snapshot(graph)
        twins = np.flatnonzero(snapshot.neighbors_of_index(0) == 12)
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
                graph, [(0, 20), (0, 12), (30, 23)], RoutingMode.TWO_SIDED, strict,
                recovery=recovery, seed=5,
                snapshot=snapshot.with_alive(alive).with_edge_alive(edge_alive),
            )
        assert tel.counters["route.rows_repaired"].value >= 1


def _ring(links, dead=(), size=64) -> OverlayGraph:
    """A wired ring with extra long links (parallel ones allowed) and dead nodes."""
    graph = OverlayGraph(RingMetric(size))
    for label in range(size):
        graph.add_node(label)
    graph.wire_ring()
    for source, target in links:
        graph.add_long_link(source, target)
    for label in dead:
        graph.fail_node(label)
    return graph


def _revisit_parity(graph, pairs, mode, strict, snapshot=None):
    """Backtracking parity on ``pairs``; returns the scalar paths for the case's own check."""
    with telemetry.session() as tel:
        _assert_parity(
            graph, pairs, mode, strict, recovery=RecoveryStrategy.BACKTRACK, snapshot=snapshot
        )
    assert tel.counters["route.rows_revisited"].value >= 1
    scalar = GreedyRouter(
        graph, mode=mode, recovery=RecoveryStrategy.BACKTRACK, strict_best_neighbor=strict
    )
    return [result.path for result in scalar.route_many(pairs)]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("mode", list(RoutingMode))
class TestBacktrackRevisits:
    """A revisited row is re-keyed against its node's tried set: every usable
    slot at or before the last consumed one in (key, slot) order, and every
    twin of their labels, is blocked before the pick."""

    def test_a_consumed_twin_is_not_offered(self, mode, strict):
        # 0 lists 16 twice; 16 is a dead end (17 dead), so 0 is revisited and
        # must move on to 1, not to the second 16.
        paths = _revisit_parity(_ring([(0, 16), (0, 16)], dead=[17]), [(0, 20)], mode, strict)
        assert paths[0][:4] == [0, 16, 0, 1]

    def test_the_other_side_of_a_two_sided_tie_is_still_offered(self, mode, strict):
        # 16 and 24 both sit 4 from the target; consuming the first-listed one
        # leaves the other untried (one-sided routing never admits 24).
        paths = _revisit_parity(
            _ring([(0, 16), (0, 24)], dead=[17, 23]), [(0, 20)], mode, strict
        )
        expected = [0, 16, 0, 24, 0, 1] if mode is RoutingMode.TWO_SIDED else [0, 16, 0, 1]
        assert paths[0][: len(expected)] == expected

    def test_an_exhausted_node_is_revisited(self, mode, strict):
        # Every candidate of 16 (17, and 18 through a link) is dead: the
        # lenient node is exhausted on its first visit and stuck on the next.
        paths = _revisit_parity(
            _ring([(0, 16), (16, 18)], dead=[17, 18]), [(0, 20)], mode, strict
        )
        assert paths[0].count(16) == 2

    def test_a_node_that_ran_out_stays_out(self, mode, strict):
        # 16 tries 18 and 17 (both dead ends once 19 is dead) and runs out;
        # reached again through 8 it has nothing left in either regime.
        graph = _ring([(0, 16), (0, 8), (8, 16), (16, 18)], dead=[19])
        paths = _revisit_parity(graph, [(0, 20)], mode, strict)
        assert paths[0][:12] == [0, 16, 18, 16, 17, 18, 17, 16, 0, 8, 16, 8]

    def test_a_consumed_dead_best_yields_the_next_best(self, mode, strict):
        # 16's best (18) is dead: the strict node consumes it and is stuck,
        # then offers 17 when the walk comes back; the lenient one takes 17 at
        # once.  The second pair gives the lenient regime its revisits.
        graph = _ring([(0, 16), (16, 18), (17, 19), (32, 44)], dead=[18, 45])
        paths = _revisit_parity(graph, [(0, 20), (32, 48)], mode, strict)
        assert paths[0][-4:] == [16, 17, 19, 20]
        assert paths[0].count(16) == (2 if strict else 1)

    def test_nodes_fall_out_of_the_window_before_the_revisits(self, mode, strict):
        # Ten hops in, 18 is stuck (19 dead) and the walk backs up through the
        # five-deep window; 0, 10, 11 and 12 have left it.  Forward hops
        # strictly close in on the target, so a forgotten node is never
        # reached again — the revisits after the overflow are the case.
        paths = _revisit_parity(_ring([(0, 10)], dead=[19]), [(0, 20)], mode, strict)
        assert paths[0] == [0, 10, 11, 12, 13, 14, 15, 16, 17, 18, 17, 16, 15, 14, 13]

    def test_a_dead_first_twin_under_an_edge_mask(self, mode, strict):
        # Row 0 holds 12 twice with 28 between them, both 8 from the target;
        # the first 12's link is dead (a mask on a snapshot compiled before
        # the faults), so the tie goes to 28.  Every long neighbour is a dead
        # end: a dead link is never a candidate, so consuming 28 must not
        # consume the 12 listed before it.
        graph = _ring([(0, 16), (0, 12), (0, 28), (0, 12)])
        snapshot = compile_snapshot(graph)
        twins = np.flatnonzero(snapshot.neighbors_of_index(0) == 12)
        edge_alive = np.ones(snapshot.neighbor_indices.shape[0], dtype=bool)
        edge_alive[snapshot.neighbor_indptr[0] + twins[0]] = False
        alive = snapshot.alive.copy()
        for label in (13, 17, 27):
            alive[label] = False
            graph.fail_node(label)
        assert graph.fail_long_link(0, 12)
        paths = _revisit_parity(
            graph, [(0, 20)], mode, strict,
            snapshot=snapshot.with_alive(alive).with_edge_alive(edge_alive),
        )
        if mode is RoutingMode.TWO_SIDED:
            expected = [0, 16, 0, 28, 0, 12, 0, 1]
        else:
            expected = [0, 16, 0, 12, 0, 1]
        assert paths[0][: len(expected)] == expected


class TestBacktrackOnDuplicateDenseGraphs:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=32, max_value=64),
        links=st.integers(min_value=6, max_value=9),
        level=st.floats(min_value=0.4, max_value=0.6),
        mode=st.sampled_from(list(RoutingMode)),
        strict=st.booleans(),
    )
    def test_parity(self, seed, n, links, level, mode, strict):
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
        _assert_parity(graph, pairs, mode, strict, recovery=RecoveryStrategy.BACKTRACK)


def _ring_or_line(kind: str, seed: int) -> OverlayGraph:
    """A sparse graph-compiled overlay: uneven degrees, non-contiguous labels."""
    rng = np.random.default_rng(seed)
    size = 200
    graph = OverlayGraph(RingMetric(size) if kind == "ring" else LineMetric(size))
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
    """Graph-compiled ring and line snapshots plus the four protocol snapshots."""
    return [
        compile_snapshot(_ring_or_line("ring", seed)),
        compile_snapshot(_ring_or_line("line", seed)),
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
                neighbors = snapshot.neighbors_of_index(vertex)
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

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        exponent=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_direct_build_respects_exponent(self, seed, exponent):
        """Non-default power-law exponents keep the equivalence."""
        from repro.core.builder import RandomGraphBuilder
        from repro.core.distributions import InversePowerLawDistribution
        from repro.core.metric import RingMetric

        n = 256
        builder = RandomGraphBuilder(
            space=RingMetric(n),
            distribution=InversePowerLawDistribution(n, exponent=exponent),
            links_per_node=3,
            seed=seed,
        )
        compiled = compile_snapshot(builder.build().graph)
        direct = build_snapshot(n, links_per_node=3, seed=seed, exponent=exponent)
        assert np.array_equal(compiled.neighbor_indptr, direct.neighbor_indptr)
        assert np.array_equal(compiled.neighbor_indices, direct.neighbor_indices)
