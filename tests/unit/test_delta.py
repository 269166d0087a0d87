"""Unit tests for the incremental snapshot-delta layer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.core.construction import build_heuristic_network
from repro.core.graph import OverlayGraph
from repro.core.maintenance import MaintenanceDaemon
from repro.core.metric import RingMetric
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.fastpath import (
    BatchGreedyRouter,
    DeltaRecorder,
    DeltaSnapshot,
    SnapshotDelta,
    build_snapshot,
    compile_snapshot,
)
from repro.fastpath.delta import (
    OP_FAIL,
    OP_LINK_FAIL,
    OP_REBUILD,
    OP_REMOVE_NODE,
    OP_REVIVE,
    OP_SET_RING,
    TornSnapshotError,
    assert_snapshots_identical,
)


def _csr_row(snapshot, index: int) -> np.ndarray:
    """Neighbour indices of the vertex at ``index``: its slice of the CSR."""
    indptr = snapshot.neighbor_indptr
    return snapshot.neighbor_indices[indptr[index]:indptr[index + 1]]


def _ring16() -> OverlayGraph:
    graph = OverlayGraph(RingMetric(16))
    for label in range(16):
        graph.add_node(label)
    graph.wire_ring()
    return graph


@pytest.fixture
def construction():
    c = build_heuristic_network(128, occupied=48, links_per_node=4, seed=9)
    return c


@pytest.fixture
def mirrored(construction):
    """(construction, daemon, recorder, mirror) with the recorder attached."""
    recorder = DeltaRecorder.attach(construction.graph)
    mirror = DeltaSnapshot.from_graph(construction.graph)
    daemon = MaintenanceDaemon(construction)
    yield construction, daemon, recorder, mirror
    recorder.detach()


class TestDeltaRecorder:
    def test_attach_is_exclusive(self, construction):
        recorder = DeltaRecorder.attach(construction.graph)
        try:
            with pytest.raises(ValueError, match="observer"):
                DeltaRecorder.attach(construction.graph)
        finally:
            recorder.detach()
        # After detaching, a new recorder may attach.
        DeltaRecorder.attach(construction.graph).detach()

    def test_drain_resets_the_batch(self, mirrored):
        construction, _daemon, recorder, _mirror = mirrored
        construction.graph.fail_node(construction.graph.labels()[0])
        first = recorder.drain()
        assert first.counts() == {"fail": 1}
        assert len(recorder.drain()) == 0

    def test_dead_link_lifecycle_is_recorded(self, mirrored):
        """Link fail, revive, and dead-link removal all stay mirrored."""
        construction, _daemon, recorder, mirror = mirrored
        graph = construction.graph
        holder = next(node.label for node in graph.nodes() if node.long_links)
        target = graph.node(holder).long_links[0].target
        assert graph.fail_long_link(holder, target)
        delta = recorder.drain()
        assert delta.counts() == {"link_fail": 1}
        mirror.apply(delta)
        assert_snapshots_identical(mirror.snapshot(), compile_snapshot(graph))
        assert graph.revive_long_link(holder, target)
        assert graph.fail_long_link(holder, target)
        # Removing a dead-flagged link is recorded too (it touches the
        # holder's and the target's rows).
        graph.remove_long_link(holder, target)
        delta = recorder.drain()
        assert delta.counts() == {"link_revive": 1, "link_fail": 1, "remove_link": 1}
        mirror.apply(delta)
        assert_snapshots_identical(mirror.snapshot(), compile_snapshot(graph))

    def test_wire_ring_is_observed(self, mirrored):
        """Bulk ring rewiring routes through the mutator and stays mirrored."""
        construction, _daemon, recorder, mirror = mirrored
        graph = construction.graph
        graph.wire_ring()
        delta = recorder.drain()
        assert delta.counts().get("set_ring", 0) == len(graph)
        mirror.apply(delta)
        assert_snapshots_identical(mirror.snapshot(), compile_snapshot(graph))

    def test_counts_summary(self, mirrored):
        construction, daemon, recorder, _mirror = mirrored
        graph = construction.graph
        graph.fail_node(graph.labels()[1])
        daemon.repair_all_batched()
        counts = recorder.drain().counts()
        assert counts.get("fail") == 1
        assert "set_ring" in counts


class TestDeltaSnapshot:
    def test_liveness_only_delta_reuses_adjacency(self, mirrored):
        construction, _daemon, recorder, mirror = mirrored
        graph = construction.graph
        before = mirror.snapshot()
        graph.fail_node(graph.labels()[2])
        delta = recorder.drain()
        assert delta.counts() == {"fail": 1}
        mirror.apply(delta)
        after = mirror.snapshot()
        # The adjacency arrays (and the cached label matrix) are shared.
        assert after.neighbor_indices is before.neighbor_indices
        assert after.neighbor_indptr is before.neighbor_indptr
        assert not np.array_equal(after.alive, before.alive)
        assert_snapshots_identical(after, compile_snapshot(graph))

    def test_structural_delta_rebuilds_adjacency(self, mirrored):
        construction, daemon, recorder, mirror = mirrored
        graph = construction.graph
        before = mirror.snapshot()
        daemon.handle_departure(sorted(graph.labels(only_alive=True))[3])
        mirror.apply(recorder.drain())
        after = mirror.snapshot()
        assert after.num_nodes == before.num_nodes - 1
        assert_snapshots_identical(after, compile_snapshot(graph))

    def test_asymmetric_compile_parity(self, construction):
        recorder = DeltaRecorder.attach(construction.graph)
        try:
            mirror = DeltaSnapshot.from_graph(
                construction.graph, symmetric_neighbors=False
            )
            daemon = MaintenanceDaemon(construction)
            construction.graph.fail_node(construction.graph.labels()[5])
            daemon.repair_all_batched()
            mirror.apply(recorder.drain())
            assert_snapshots_identical(
                mirror.snapshot(),
                compile_snapshot(construction.graph, symmetric_neighbors=False),
            )
        finally:
            recorder.detach()

    def test_mask_tier_rejects_structural_ops(self, mirrored):
        construction, daemon, recorder, _mirror = mirrored
        graph = construction.graph
        mask_mirror = DeltaSnapshot.from_snapshot(compile_snapshot(graph))
        daemon.handle_departure(sorted(graph.labels(only_alive=True))[0])
        delta = recorder.drain()
        with pytest.raises(NotImplementedError, match="recompile"):
            mask_mirror.apply(delta)

    def test_mask_tier_crash_matches_with_alive(self, construction):
        base = compile_snapshot(construction.graph)
        mirror = DeltaSnapshot.from_snapshot(base)
        victims = construction.graph.labels()[:5]
        mirror.crash(victims)
        construction_alive = base.alive.copy()
        construction_alive[base.indices_of(np.asarray(victims))] = False
        assert np.array_equal(mirror.snapshot().alive, construction_alive)
        mirror.revive(victims)
        assert np.array_equal(mirror.snapshot().alive, base.alive)

    @pytest.mark.parametrize("via", ["delta", "bulk"])
    @pytest.mark.parametrize("tier", ["structural", "liveness"])
    @pytest.mark.parametrize("op", [OP_FAIL, OP_REVIVE])
    def test_liveness_ops_on_non_vertices_are_refused(self, tier, op, via):
        """Both tiers refuse a label that is no vertex; -1 must not wrap to the top.

        A recorded op and a bulk ``crash`` / ``revive`` call are refused alike;
        a bulk call writes nothing when any of its labels is refused.
        """
        graph = OverlayGraph(RingMetric(16))
        for label in range(16):
            if label != 5:
                graph.add_node(label)
        graph.wire_ring()
        graph.fail_node(3)
        if tier == "structural":
            mirror = DeltaSnapshot.from_graph(graph)
        else:
            mirror = DeltaSnapshot.from_snapshot(compile_snapshot(graph))
        bulk = mirror.revive if op == OP_REVIVE else mirror.crash

        def refused(label):
            if via == "delta":
                mirror.apply(SnapshotDelta(ops=[(op, label)]))
            else:
                bulk([3, 4, label])

        for label in (-1, 5, 16):
            with pytest.raises(KeyError, match="are not vertices of this snapshot"):
                refused(label)
        assert_snapshots_identical(mirror.snapshot(), compile_snapshot(graph))

    def test_a_refused_liveness_delta_changes_nothing(self):
        """The liveness tier checks every op before it writes any."""
        graph = _ring16()
        mirror = DeltaSnapshot.from_snapshot(compile_snapshot(graph))
        before = mirror.snapshot()
        with pytest.raises(ValueError, match="diverged"):
            mirror.apply(SnapshotDelta(ops=[(OP_FAIL, 5), (OP_LINK_FAIL, 7, 7)]))
        with pytest.raises(KeyError, match="are not vertices of this snapshot"):
            mirror.apply(SnapshotDelta(ops=[(OP_LINK_FAIL, 0, 1), (OP_FAIL, -1)]))
        assert_snapshots_identical(mirror.snapshot(), before)
        # The mirror stays usable, and the last write per vertex wins.
        mirror.apply(SnapshotDelta(ops=[(OP_FAIL, 5), (OP_REVIVE, 5), (OP_FAIL, 6)]))
        graph.fail_node(6)
        assert_snapshots_identical(mirror.snapshot(), compile_snapshot(graph))

    def test_a_refused_structural_batch_leaves_the_snapshot_unchanged(self):
        """The structural tier checks every op before it writes any."""
        graph = _ring16()
        mirror = DeltaSnapshot.from_graph(graph)
        before = mirror.snapshot()
        refusals = [
            (KeyError, [(OP_SET_RING, 4, 3, 5), (OP_REMOVE_NODE, 6), (OP_LINK_FAIL, 7, 99)]),
            (KeyError, [(OP_FAIL, 5), (OP_REMOVE_NODE, 3), (OP_REVIVE, 3)]),
            (NotImplementedError, [(OP_FAIL, 5), (OP_SET_RING, 4, 3, 5), (OP_REBUILD,)]),
        ]
        for error, ops in refusals:
            with pytest.raises(error):
                mirror.apply(SnapshotDelta(ops=ops))
            assert_snapshots_identical(mirror.snapshot(), before)
            assert _refresh_strategy(mirror)[0] == "liveness_reuse"
        # The mirror stays usable.
        mirror.apply(SnapshotDelta(ops=[(OP_FAIL, 5), (OP_REVIVE, 5), (OP_FAIL, 6)]))
        graph.fail_node(6)
        assert_snapshots_identical(mirror.snapshot(), compile_snapshot(graph))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_a_label_removed_and_re_added_in_one_batch(self, symmetric):
        graph = _ring16()
        graph.add_long_link(0, 8)
        graph.add_long_link(8, 12)
        graph.add_long_link(3, 8)
        graph.fail_long_link(3, 8)
        mirror = DeltaSnapshot.from_graph(graph, symmetric_neighbors=symmetric)
        recorder = DeltaRecorder.attach(graph)
        try:
            mirror.snapshot()
            graph.remove_node(8)
            graph.add_node(8)
            graph.set_immediate_neighbors(8, 7, 9)
            graph.add_long_link(8, 2)
            delta = recorder.drain()
            assert delta.counts() == {
                "remove_node": 1, "add_node": 1, "set_ring": 1, "add_link": 1
            }
            mirror.apply(delta)
            strategy, snapshot = _refresh_strategy(mirror)
        finally:
            recorder.detach()
        assert strategy == "row_splice"
        assert_snapshots_identical(
            snapshot, compile_snapshot(graph, symmetric_neighbors=symmetric)
        )

    def test_a_departed_label_named_only_by_a_dead_nodes_ring_pointer(self):
        """The one row to re-read is found in the previous materialization."""
        graph = _ring16()
        graph.fail_node(4)
        graph.set_immediate_neighbors(6, 4, 7)  # 6 skips 5; only dead 4 still names it
        mirror = DeltaSnapshot.from_graph(graph)
        before = mirror.snapshot()
        assert 5 in before.labels[_csr_row(before, 4)]
        recorder = DeltaRecorder.attach(graph)
        try:
            graph.remove_node(5)
            delta = recorder.drain()
        finally:
            recorder.detach()
        assert delta.ops == [(OP_REMOVE_NODE, 5)]
        mirror.apply(delta)
        strategy, snapshot = _refresh_strategy(mirror)
        assert strategy == "row_splice"
        assert 5 not in snapshot.labels[_csr_row(snapshot, 3)]
        assert_snapshots_identical(snapshot, compile_snapshot(graph))

    @pytest.mark.parametrize(
        "mutate, rows",
        [
            (lambda g: g.add_long_link(2, 10), (2, 10)),
            (lambda g: g.remove_long_link(0, 8), (0, 8)),
            (lambda g: g.redirect_long_link(0, 8, 12), (0, 8, 12)),
            (lambda g: g.fail_long_link(0, 8), (0, 8)),
            (lambda g: g.revive_long_link(5, 13), (5, 13)),
        ],
        ids=["add", "remove", "redirect", "fail", "revive"],
    )
    def test_a_link_op_re_reads_every_row_it_changes(self, mutate, rows):
        """With incoming links in a row, a link op changes its targets' rows too."""
        graph = _ring16()
        graph.add_long_link(0, 8)
        graph.add_long_link(5, 13)
        graph.fail_long_link(5, 13)
        mirror = DeltaSnapshot.from_graph(graph, symmetric_neighbors=True)
        before = mirror.snapshot()
        recorder = DeltaRecorder.attach(graph)
        try:
            assert mutate(graph) is not False
            mirror.apply(recorder.drain())
        finally:
            recorder.detach()
        strategy, snapshot = _refresh_strategy(mirror)
        assert strategy == "row_splice"
        expected = compile_snapshot(graph, symmetric_neighbors=True)
        for label in rows:
            (before_row,) = before.indices_of([label])
            (after_row,) = expected.indices_of([label])
            assert not np.array_equal(
                before.labels[_csr_row(before, before_row)],
                expected.labels[_csr_row(expected, after_row)],
            ), f"row {label} is unchanged, so it tests nothing"
        assert_snapshots_identical(snapshot, expected)

    def test_a_snapshot_torn_by_unapplied_mutations_is_refused(self, mirrored):
        construction, _daemon, recorder, mirror = mirrored
        graph = construction.graph
        served = mirror.snapshot()
        holder = next(node.label for node in graph.nodes() if node.long_links)
        graph.fail_long_link(holder, graph.node(holder).long_links[0].target)
        mirror.apply(recorder.drain())
        graph.wire_ring()  # recorded, not yet applied
        with pytest.raises(TornSnapshotError, match="not applied"):
            mirror.snapshot()
        mirror.apply(recorder.drain())
        assert_snapshots_identical(mirror.snapshot(), compile_snapshot(graph))
        # With no row to re-read, the applied state is served, not refused.
        graph.fail_node(holder)
        applied = mirror.snapshot()
        assert applied.alive[applied.indices_of([holder])].all()
        assert served.alive.all()

    def test_unsupported_space_raises(self):
        from repro.baselines import CanNetwork

        can = CanNetwork(side=4, dimensions=2)
        with pytest.raises(NotImplementedError, match="require a RingMetric"):
            DeltaSnapshot.from_graph(can)  # not an OverlayGraph on a ring


def _refresh_strategy(mirror) -> tuple[str, object]:
    """The one ``refresh.strategy.*`` counter a ``snapshot()`` call bumps."""
    with telemetry.session() as tel:
        snapshot = mirror.snapshot()
    (name,) = [n for n in tel.counters if n.startswith("refresh.strategy.")]
    assert tel.counters[name].value == 1
    return name.removeprefix("refresh.strategy."), snapshot


class TestRefreshStrategy:
    """Each refresh takes the cheapest tier its delta allows; a fall back to
    rebuilding every row shows up here, not in a timing."""

    def test_structural_tier(self, mirrored):
        construction, daemon, recorder, mirror = mirrored
        graph = construction.graph

        def refresh() -> str:
            mirror.apply(recorder.drain())
            strategy, snapshot = _refresh_strategy(mirror)
            assert_snapshots_identical(snapshot, compile_snapshot(graph), strategy)
            return strategy

        assert refresh() == "full_rebuild"  # first call: nothing to splice from
        victim = sorted(graph.labels(only_alive=True))[2]
        graph.fail_node(victim)
        assert refresh() == "liveness_reuse"
        graph.revive_node(victim)
        assert refresh() == "liveness_reuse"
        # Dead links leave the compiled rows, so a link flip re-gathers the
        # two rows it touches and splices the rest.
        holder = next(node.label for node in graph.nodes() if node.long_links)
        graph.fail_long_link(holder, graph.node(holder).long_links[0].target)
        assert refresh() == "row_splice"
        # A join + leave burst dirties a few rows of 48.
        construction.add_point(next(label for label in range(128) if not graph.has_node(label)))
        daemon.handle_departure(sorted(graph.labels(only_alive=True))[5])
        assert len(mirror._dirty) * 3 < 2 * len(graph)
        assert refresh() == "row_splice"
        # Rewiring the whole ring dirties every row: >= 2/3, rebuild them all.
        graph.wire_ring()
        assert refresh() == "full_rebuild"

    def test_liveness_tier(self, construction):
        graph = construction.graph
        mirror = DeltaSnapshot.from_snapshot(compile_snapshot(graph))
        assert _refresh_strategy(mirror)[0] == "liveness_reuse"
        victim = graph.labels()[2]
        holder = next(node.label for node in graph.nodes() if node.long_links)
        target = graph.node(holder).long_links[0].target
        for op in ((OP_FAIL, victim), (OP_REVIVE, victim), (OP_LINK_FAIL, holder, target)):
            mirror.apply(SnapshotDelta(ops=[op]))
            assert _refresh_strategy(mirror)[0] == "liveness_reuse"

    def test_rebase_onto_liveness_only_snapshot_keeps_the_dense_matrices(self, mirrored):
        construction, _daemon, recorder, mirror = mirrored
        graph = construction.graph
        router = BatchGreedyRouter(mirror.snapshot())
        matrix = router.snapshot.label_matrix()
        graph.fail_node(sorted(graph.labels(only_alive=True))[1])
        mirror.apply(recorder.drain())
        strategy, snapshot = _refresh_strategy(mirror)
        router.rebase(snapshot)
        assert strategy == "liveness_reuse"
        assert router.snapshot.label_matrix() is matrix


class TestRouterRebase:
    def test_rebase_invalidates_usable_and_pool_caches(self, mirrored):
        """A rebased router keeps its detour stream and redraws its detour pool."""
        construction, daemon, recorder, mirror = mirrored
        graph = construction.graph
        config = dict(recovery=RecoveryStrategy.RANDOM_REROUTE, seed=4)
        scalar = GreedyRouter(graph, **config)

        def pairs_over_live():
            live = sorted(graph.labels(only_alive=True))
            return [(s, t) for s in live[::2] for t in live[1::5] if s != t]

        def assert_batch_matches_scalar(router):
            pairs = pairs_over_live()
            result = router.route_pairs(pairs, record_paths=True)
            # Detours were drawn, so the pool (and the stream) mattered.
            assert result.reroutes.any()
            for index, reference in enumerate(scalar.route_many(pairs)):
                assert result.paths[index] == reference.path
                assert int(result.reroutes[index]) == reference.reroutes

        for victim in sorted(graph.labels())[1::3]:
            graph.fail_node(victim)
        mirror.apply(recorder.drain())
        router = BatchGreedyRouter(
            mirror.snapshot(), reroute_pool=graph.labels(only_alive=True), **config
        )
        assert_batch_matches_scalar(router)
        # Mutate: crash more nodes, repair around one, then rebase onto the
        # delta result — the scalar router just sees its graph change.
        live = sorted(graph.labels(only_alive=True))
        for victim in live[2::4]:
            graph.fail_node(victim)
        daemon.handle_departure(live[2])
        mirror.apply(recorder.drain())
        router.rebase(mirror.snapshot())
        router.reroute_pool = graph.labels(only_alive=True)
        assert_batch_matches_scalar(router)

    def test_rebase_derives_nothing(self):
        """The first batch after a rebase allocates like a warm one (no fold)."""
        snapshot = build_snapshot(4096, seed=3, symmetric_neighbors=False)
        mirror = DeltaSnapshot.from_snapshot(snapshot)
        router = BatchGreedyRouter(mirror.snapshot())
        sources = np.arange(0, 4096, 64, dtype=np.int64)
        targets = (sources + 2001) % 4096
        assert router.route_batch(sources, targets).success.all()
        matrix = router.snapshot.label_matrix()
        holder = 7
        target = int(snapshot.labels[_csr_row(snapshot, holder)[-1]])
        mirror.apply(SnapshotDelta(ops=[(OP_FAIL, 1000)]))
        mirror.apply(SnapshotDelta(ops=[(OP_LINK_FAIL, holder, target)]))
        router.rebase(mirror.snapshot())
        assert router.snapshot.edge_alive is not None and not router.snapshot.alive.all()
        tracemalloc.start()
        try:
            result = router.route_batch(sources, targets)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == 64
        # A liveness fold over the matrix would allocate at least a bool per slot.
        assert peak < matrix.nbytes / 4
        assert router.snapshot.label_matrix() is matrix

    def test_snapshot_delta_repr_roundtrip(self):
        delta = SnapshotDelta()
        assert not delta and len(delta) == 0 and delta.counts() == {}


class TestEdgeLiveness:
    def test_with_edge_alive_normalizes_all_true_to_none(self, construction):
        snapshot = compile_snapshot(construction.graph)
        mask = np.ones(snapshot.neighbor_indices.shape[0], dtype=bool)
        assert snapshot.with_edge_alive(mask).edge_alive is None
        if mask.size:
            mask[0] = False
            flagged = snapshot.with_edge_alive(mask)
            assert flagged.edge_alive is not None
            assert not flagged.edge_alive[0]

    def test_with_edge_alive_shape_mismatch_raises(self, construction):
        snapshot = compile_snapshot(construction.graph)
        with pytest.raises(ValueError, match="edge_alive"):
            snapshot.with_edge_alive(np.ones(3, dtype=bool))

    def test_structural_tier_link_flip_matches_compile(self, mirrored):
        construction, _daemon, recorder, mirror = mirrored
        graph = construction.graph
        holders = [node.label for node in graph.nodes() if node.long_links][:4]
        for holder in holders:
            target = graph.node(holder).long_links[0].target
            graph.fail_long_link(holder, target)
        mirror.apply(recorder.drain())
        snapshot = mirror.snapshot()
        assert_snapshots_identical(snapshot, compile_snapshot(graph))
        # A fresh compile excludes dead links entirely, so no edge mask.
        assert snapshot.edge_alive is None

    def test_liveness_tier_link_flip_matches_compile(self):
        from repro.baselines import ChordNetwork
        from repro.fastpath.delta import OP_LINK_FAIL, OP_LINK_REVIVE

        overlay = ChordNetwork(bits=5)
        mirror = DeltaSnapshot.from_overlay(overlay)
        holder = overlay.members[0]
        target = overlay.neighbors_of(holder)[0]
        overlay.fail_link(holder, target)
        mirror.apply(SnapshotDelta(ops=[(OP_LINK_FAIL, holder, target)]))
        masked = mirror.snapshot()
        assert masked.edge_alive is not None
        assert_snapshots_identical(masked, overlay.compile_snapshot())
        overlay.revive_link(holder, target)
        mirror.apply(SnapshotDelta(ops=[(OP_LINK_REVIVE, holder, target)]))
        restored = mirror.snapshot()
        # All-True masks normalize away: field identity with a fresh compile.
        assert restored.edge_alive is None
        assert_snapshots_identical(restored, overlay.compile_snapshot())

    def test_rebuild_requires_overlay_backed_mirror(self):
        from repro.baselines import ChordNetwork
        from repro.fastpath.delta import OP_REBUILD

        overlay = ChordNetwork(bits=5)
        mirror = DeltaSnapshot.from_snapshot(overlay.compile_snapshot())
        with pytest.raises(NotImplementedError, match="from_overlay"):
            mirror.apply(SnapshotDelta(ops=[(OP_REBUILD,)]))

    def test_unknown_link_flip_diverges_loudly(self):
        from repro.baselines import ChordNetwork
        from repro.fastpath.delta import OP_LINK_FAIL

        overlay = ChordNetwork(bits=5)
        mirror = DeltaSnapshot.from_overlay(overlay)
        holder = overlay.members[0]
        with pytest.raises(ValueError, match="diverged"):
            mirror.apply(SnapshotDelta(ops=[(OP_LINK_FAIL, holder, holder)]))

    def test_batch_router_skips_dead_edges(self):
        from repro.baselines import ChordNetwork

        overlay = ChordNetwork(bits=5)
        source = overlay.members[0]
        target = overlay.members[9]
        first_hop = overlay.route(source, target).path[1]
        overlay.fail_link(source, first_hop)
        reference = overlay.route(source, target)
        router = BatchGreedyRouter(
            overlay.compile_snapshot(), hop_limit=overlay.hop_limit
        )
        result = router.route_pairs([(source, target)], record_paths=True)
        assert bool(result.success[0]) == reference.success
        assert result.paths[0] == reference.path
        assert first_hop not in result.paths[0][:2]
