"""Unit tests for the fastpath subsystem (snapshot, batch router, failures)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.builder import build_ideal_network
from repro.core.failures import NodeFailureModel
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric, TorusMetric
from repro.core.network import P2PNetwork
from repro.core.routing import FailureReason, GreedyRouter, RecoveryStrategy
from repro.fastpath import (
    FAILURE_CODES,
    BatchGreedyRouter,
    apply_node_failures,
    build_snapshot,
    compile_snapshot,
    sample_node_failures,
    snapshot_nbytes,
)
from repro.fastpath import builder
from repro.fastpath.delta import assert_snapshots_identical
from repro.scenarios.rounds import EngineSession, IdealNetwork
from repro.simulation.workload import LookupWorkload


def _csr_row(snapshot, index: int) -> np.ndarray:
    """Neighbour indices of the vertex at ``index``: its slice of the CSR."""
    indptr = snapshot.neighbor_indptr
    return snapshot.neighbor_indices[indptr[index]:indptr[index + 1]]


@pytest.fixture
def snapshot_256():
    graph = build_ideal_network(256, seed=11).graph
    return graph, compile_snapshot(graph)


class TestCompileSnapshot:
    def test_labels_sorted_and_complete(self, snapshot_256):
        graph, snapshot = snapshot_256
        assert snapshot.num_nodes == len(graph)
        assert np.all(np.diff(snapshot.labels) > 0)
        assert set(snapshot.labels.tolist()) == set(graph.labels())

    def test_neighbor_rows_match_scalar_candidate_order(self, snapshot_256):
        graph, snapshot = snapshot_256
        for index in range(snapshot.num_nodes):
            label = int(snapshot.labels[index])
            expected = graph.neighbors_of(
                label,
                only_alive_nodes=False,
                only_alive_links=True,
                include_incoming=True,
            )
            row = [int(snapshot.labels[i]) for i in _csr_row(snapshot, index)]
            assert row == expected

    def test_alive_mask_tracks_graph_liveness(self):
        graph = build_ideal_network(64, seed=2).graph
        graph.fail_node(10)
        graph.fail_node(33)
        snapshot = compile_snapshot(graph)
        dead = snapshot.labels[~snapshot.alive].tolist()
        assert sorted(dead) == [10, 33]

    def test_dead_links_are_omitted(self):
        graph = build_ideal_network(64, seed=3).graph
        node = graph.node(0)
        assert node.long_links, "seeded build should give node 0 long links"
        victim = node.long_links[0]
        victim.alive = False
        snapshot = compile_snapshot(graph)
        row = [int(snapshot.labels[i]) for i in _csr_row(snapshot, 0)]
        expected = graph.neighbors_of(
            0, only_alive_nodes=False, only_alive_links=True, include_incoming=True
        )
        assert row == expected

    def test_asymmetric_compile_drops_incoming(self):
        graph = build_ideal_network(64, seed=4).graph
        directed = compile_snapshot(graph, symmetric_neighbors=False)
        for index in range(directed.num_nodes):
            label = int(directed.labels[index])
            expected = graph.neighbors_of(
                label,
                only_alive_nodes=False,
                only_alive_links=True,
                include_incoming=False,
            )
            row = [int(directed.labels[i]) for i in _csr_row(directed, index)]
            assert row == expected

    def test_rejects_torus_space(self):
        graph = OverlayGraph(TorusMetric(side=4, dimensions=2))
        with pytest.raises(NotImplementedError, match="require a RingMetric, got TorusMetric"):
            compile_snapshot(graph)

    def test_indices_of_rejects_unknown_labels(self, snapshot_256):
        _graph, snapshot = snapshot_256
        with pytest.raises(KeyError):
            snapshot.indices_of([0, 10_000])

    def test_distance_matches_scalar_space(self):
        space = RingMetric(97)
        graph = OverlayGraph(space)
        for label in range(97):
            graph.add_node(label)
        graph.wire_ring()
        policy = compile_snapshot(graph).greedy_policy()
        a = np.arange(97)
        for b in (0, 13, 48, 49, 96):
            expected_d = [space.distance(int(x), b) for x in a]
            assert policy.distance(a, np.int64(b)).tolist() == expected_d

    def test_with_alive_shares_topology_and_checks_shape(self, snapshot_256):
        _graph, snapshot = snapshot_256
        derived = snapshot.with_alive(np.zeros(snapshot.num_nodes, dtype=bool))
        assert derived.neighbor_indices is snapshot.neighbor_indices
        assert int(derived.alive.sum()) == 0
        assert int(snapshot.alive.sum()) == snapshot.num_nodes
        assert derived.label_matrix() is snapshot.label_matrix()
        with pytest.raises(ValueError):
            snapshot.with_alive(np.ones(3, dtype=bool))


class TestBuildSnapshot:
    def test_bit_identical_to_object_build(self):
        for n, links, seed in [(64, 3, 0), (128, 7, 5), (2, 1, 1), (100, 1, 3), (3, 2, 1)]:
            compiled = compile_snapshot(
                build_ideal_network(n, links_per_node=links, seed=seed).graph
            )
            direct = build_snapshot(n, links_per_node=links, seed=seed)
            assert np.array_equal(compiled.labels, direct.labels)
            assert np.array_equal(compiled.alive, direct.alive)
            assert np.array_equal(compiled.neighbor_indptr, direct.neighbor_indptr)
            assert np.array_equal(compiled.neighbor_indices, direct.neighbor_indices)
            assert compiled.space_size == direct.space_size
            assert direct.kind == "ring"
            # ... dtypes included (labels and indptr narrow on both paths).
            assert_snapshots_identical(direct, compiled)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_chunked_draw_matches_object_build(self, monkeypatch, symmetric):
        # Five-row chunks: every size but n = 3 draws, dedups and key-tests
        # across several chunks, the last one short.
        monkeypatch.setattr(builder, "_CHUNK_ROWS", 5)
        for n in (3, 64, 100):
            for links in (1, 7, 17):
                graph = build_ideal_network(n, links_per_node=links, seed=n + links).graph
                direct = build_snapshot(
                    n, links_per_node=links, seed=n + links, symmetric_neighbors=symmetric
                )
                assert_snapshots_identical(
                    direct, compile_snapshot(graph, symmetric_neighbors=symmetric)
                )

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_build_peak_is_a_few_snapshots(self, symmetric):
        build_snapshot(64, symmetric_neighbors=symmetric)  # imports outside the trace
        tracemalloc.start()
        try:
            snapshot = build_snapshot(1 << 15, seed=1, symmetric_neighbors=symmetric)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Each phase's temporaries are freed after their last use, so the
        # peak is the largest phase (3.4–3.6 snapshots here), not their sum.
        assert peak <= 6 * snapshot_nbytes(snapshot)

    def test_asymmetric_build_drops_incoming(self):
        compiled = compile_snapshot(
            build_ideal_network(64, links_per_node=4, seed=7).graph,
            symmetric_neighbors=False,
        )
        direct = build_snapshot(64, links_per_node=4, seed=7, symmetric_neighbors=False)
        assert np.array_equal(compiled.neighbor_indptr, direct.neighbor_indptr)
        assert np.array_equal(compiled.neighbor_indices, direct.neighbor_indices)
        assert not direct.symmetric_neighbors

    def test_default_links_per_node_matches_paper_rule(self):
        direct = build_snapshot(256, seed=1)
        # ceil(lg 256) = 8 long links plus 2 short links, minus dedup losses.
        degrees = direct.degrees()
        assert degrees.min() >= 2
        assert float(degrees.mean()) > 8

    def test_routing_over_direct_snapshot(self):
        direct = build_snapshot(512, seed=4)
        result = BatchGreedyRouter(direct).route_batch([0, 5, 100], [256, 400, 17])
        assert result.success.all()

    def test_failures_compose_with_direct_build(self):
        direct = build_snapshot(256, seed=6)
        derived = apply_node_failures(direct, 0.3, seed=9)
        assert int(derived.alive.sum()) == 256 - round(0.3 * 256)


class TestBatchGreedyRouter:
    def test_all_recovery_strategies_construct(self, snapshot_256):
        _graph, snapshot = snapshot_256
        for recovery in RecoveryStrategy:
            router = BatchGreedyRouter(snapshot, recovery=recovery)
            assert router.recovery is recovery

    def test_multi_detour_budget_raises_with_guidance(self, snapshot_256):
        # One detour per query is a constant of both routers, not a knob.
        graph, snapshot = snapshot_256
        for budget in (1, 2):
            with pytest.raises(TypeError, match="max_reroutes"):
                BatchGreedyRouter(snapshot, max_reroutes=budget)
            with pytest.raises(TypeError, match="max_reroutes"):
                GreedyRouter(graph, max_reroutes=budget)

    def test_default_hop_limit_matches_scalar_router(self, snapshot_256):
        graph, snapshot = snapshot_256
        assert BatchGreedyRouter(snapshot).hop_limit == GreedyRouter(graph).hop_limit

    def test_source_equals_target_is_zero_hop_success(self, snapshot_256):
        _graph, snapshot = snapshot_256
        result = BatchGreedyRouter(snapshot).route_batch([5], [5])
        assert bool(result.success[0]) and int(result.hops[0]) == 0

    def test_dead_endpoint_codes(self):
        graph = build_ideal_network(64, seed=5).graph
        graph.fail_node(7)
        router = BatchGreedyRouter(compile_snapshot(graph))
        result = router.route_batch([7, 20, 7], [20, 7, 7])
        assert not result.success.any()
        assert result.failure_codes[0] == FAILURE_CODES[FailureReason.DEAD_SOURCE]
        assert result.failure_codes[1] == FAILURE_CODES[FailureReason.DEAD_TARGET]
        # Dead source is checked before dead target, as in the scalar router.
        assert result.failure_codes[2] == FAILURE_CODES[FailureReason.DEAD_SOURCE]

    def test_empty_batch(self, snapshot_256):
        _graph, snapshot = snapshot_256
        result = BatchGreedyRouter(snapshot).route_pairs([])
        assert len(result) == 0
        assert result.success_rate() == 0.0
        assert result.mean_hops() == 0.0

    def test_shape_mismatch_rejected(self, snapshot_256):
        _graph, snapshot = snapshot_256
        with pytest.raises(ValueError):
            BatchGreedyRouter(snapshot).route_batch([1, 2], [3])

    def test_statistics_helpers(self):
        graph = build_ideal_network(128, seed=6).graph
        router = BatchGreedyRouter(compile_snapshot(graph))
        pairs = LookupWorkload(seed=1).pairs(graph.labels(only_alive=True), 50)
        result = router.route_pairs(pairs)
        assert result.success_rate() == 1.0
        assert result.mean_hops() == pytest.approx(float(result.hops.mean()))

    def test_hop_limit_enforced(self):
        # A bare ring (no long links) needs 32 hops for the antipode; a
        # 1-hop budget must therefore fail with HOP_LIMIT.
        graph = OverlayGraph(RingMetric(64))
        for label in range(64):
            graph.add_node(label)
        graph.wire_ring()
        router = BatchGreedyRouter(compile_snapshot(graph), hop_limit=1)
        result = router.route_batch([0], [32])
        assert not bool(result.success[0])
        assert result.failure_codes[0] == FAILURE_CODES[FailureReason.HOP_LIMIT]
        assert int(result.hops[0]) == 1


class TestFastpathFailures:
    def test_fraction_mode_exact_count(self, snapshot_256):
        _graph, snapshot = snapshot_256
        failed = sample_node_failures(snapshot, 0.25, seed=3)
        assert int(failed.sum()) == round(0.25 * snapshot.num_nodes)

    @pytest.mark.parametrize("level", [0.0, 0.1, 0.5, 1.0])
    def test_exact_count_at_every_level(self, snapshot_256, level):
        _graph, snapshot = snapshot_256
        failed = sample_node_failures(snapshot, level, seed=4)
        assert failed.dtype == bool and failed.shape == (snapshot.num_nodes,)
        assert int(failed.sum()) == round(level * snapshot.num_nodes)

    def test_only_live_vertices_are_candidates(self, snapshot_256):
        _graph, snapshot = snapshot_256
        half_dead = snapshot.with_alive(np.arange(snapshot.num_nodes) % 2 == 0)
        failed = sample_node_failures(half_dead, 0.5, seed=5)
        assert not (failed & ~half_dead.alive).any()
        assert int(failed.sum()) == round(0.5 * int(half_dead.alive.sum()))

    def test_apply_masks_exactly_the_sampled_victims(self, snapshot_256):
        _graph, snapshot = snapshot_256
        failed = sample_node_failures(snapshot, 0.3, seed=12)
        derived = apply_node_failures(snapshot, 0.3, seed=12)
        assert np.array_equal(derived.alive, snapshot.alive & ~failed)
        assert not np.array_equal(failed, sample_node_failures(snapshot, 0.3, seed=13))

    def test_out_of_range_level_rejected(self, snapshot_256):
        _graph, snapshot = snapshot_256
        with pytest.raises(ValueError, match="failure_level"):
            sample_node_failures(snapshot, 1.5)

    def test_matches_object_failure_model_victims(self):
        """Same seed, same candidates => same victims as NodeFailureModel."""
        graph = build_ideal_network(256, seed=9).graph
        snapshot = compile_snapshot(graph)
        model = NodeFailureModel(0.3, seed=21)
        model.apply(graph)
        failed = sample_node_failures(snapshot, 0.3, seed=21)
        assert sorted(model.failed_labels) == sorted(
            snapshot.labels[failed].tolist()
        )
        model.repair(graph)

    def test_apply_returns_derived_snapshot(self, snapshot_256):
        _graph, snapshot = snapshot_256
        derived = apply_node_failures(snapshot, 0.5, seed=6)
        assert int(snapshot.alive.sum()) == snapshot.num_nodes
        assert int(derived.alive.sum()) == snapshot.num_nodes - round(0.5 * snapshot.num_nodes)
        # Routing over the derived snapshot respects the new liveness.
        live = derived.labels[derived.alive]
        result = BatchGreedyRouter(derived).route_batch(live[:10], live[-10:])
        assert len(result) == 10


class TestEngineSelection:
    def test_unknown_engine_is_refused(self):
        with pytest.raises(ValueError, match="'gpu'"):
            EngineSession(IdealNetwork(64, None, seed=1), "gpu", RecoveryStrategy.TERMINATE, 0)


class TestNetworkHook:
    def test_compiled_router_matches_scalar_routing(self):
        """Batched routing of a P2PNetwork is a fastpath session opened on it."""
        network = P2PNetwork(space_size=1024, seed=4)  # default: backtracking
        network.join_many(list(range(0, 1024, 2)))
        with EngineSession(network, "fastpath", network.recovery, network.seed) as session:
            for address in (10, 12, 14, 500):
                network.crash(address)  # reaches the mirror through the session
            pairs = LookupWorkload(seed=5).pairs(network.members(), 30)
            success, hops = session.route(pairs)
        for index, (source, target) in enumerate(pairs):
            reference = network.route(source, target)
            assert bool(success[index]) == reference.success
            assert int(hops[index]) == reference.hops
