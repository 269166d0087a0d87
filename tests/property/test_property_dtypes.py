"""The snapshot dtype contract, checked on the arrays the library builds.

:mod:`repro.fastpath.dtypes` holds the contract as data —
:data:`~repro.fastpath.dtypes.SNAPSHOT_CONTRACT` (one row per governed field)
and :func:`~repro.fastpath.dtypes.expected_snapshot_dtypes` (the snapshot
fields' dtypes at a given size).  These properties read that data and compare
it with the dtype of every governed array a run produces:

* every :class:`FastpathSnapshot` a constructor returns — ``build_snapshot``,
  ``compile_snapshot`` (empty graphs included), each baseline overlay's
  ``compile_snapshot`` and both delta tiers — plus its derived views
  (``label_matrix()``, ``labels_compact()``, ``class_matrix()``,
  ``routing_matrices()``);
* the structural mirror's label-indexed masks after every op of a churn
  script;
* the liveness mirror's masks after crash and link flips;
* :class:`BatchRouteResult` under all three recoveries, empty batches
  included, against the dtypes its docstring promises;
* every policy's ``distance`` and ``candidate_keys`` outputs.

The arithmetic that deliberately widens past ``int32`` is pinned by value at
the cutoffs in ``tests/unit/test_dtypes.py``.
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
from repro.core.builder import build_ideal_network
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.core.network import P2PNetwork
from repro.core.routing import RecoveryStrategy
from repro.fastpath import (
    BatchGreedyRouter,
    DeltaRecorder,
    DeltaSnapshot,
    build_snapshot,
    compile_snapshot,
)
from repro.fastpath.dtypes import (
    EDGE_CLASS_DTYPE,
    MASK_DTYPE,
    SNAPSHOT_CONTRACT,
    expected_snapshot_dtypes,
    label_dtype,
)
from repro.fastpath.failures import sample_node_failures
from repro.simulation.workload import LookupWorkload
from repro.util.rng import spawn_rng

INT8, INT32, INT64 = np.dtype(np.int8), np.dtype(np.int32), np.dtype(np.int64)


# ---------------------------------------------------------------------------
# The checks: contract data against live arrays
# ---------------------------------------------------------------------------


def _policy_dtype(policy: str, space_size: int) -> np.dtype:
    """Resolve a mirror contract row's policy expression at ``space_size``."""
    if policy.startswith("bool"):
        return MASK_DTYPE
    if policy == "label_dtype(space_size)":
        return label_dtype(space_size)
    raise AssertionError(f"no resolver for contract policy {policy!r}")


def assert_snapshot_contract(snapshot) -> None:
    """Every snapshot field and derived view carries its contract dtype."""
    total = int(snapshot.neighbor_indptr[-1])
    expected = expected_snapshot_dtypes(snapshot.space_size, total)
    admissible = {
        entry.field: entry.dtypes
        for entry in SNAPSHOT_CONTRACT
        if entry.owner == "FastpathSnapshot"
    }
    for name, dtype in expected.items():
        assert dtype.name in admissible[name], (name, dtype)
        array = getattr(snapshot, name)
        if array is not None:
            assert array.dtype == dtype, f"{name}: {array.dtype} != {dtype}"
    labels = expected["labels"]
    assert snapshot.labels_compact().dtype == labels
    assert snapshot.label_matrix().dtype == labels
    classes = snapshot.class_matrix()
    if classes is not None:
        assert classes.dtype == EDGE_CLASS_DTYPE
    dense, valid, neighbor_labels = snapshot.routing_matrices()
    assert (dense.dtype, valid.dtype, neighbor_labels.dtype) == (INT32, MASK_DTYPE, labels)


def assert_mirror_contract(mirror: DeltaSnapshot) -> None:
    """Every mirror field the contract governs (when set) matches it."""
    for entry in SNAPSHOT_CONTRACT:
        if entry.owner == "DeltaSnapshot":
            array = getattr(mirror, entry.field)
            if array is not None:
                dtype = _policy_dtype(entry.policy, mirror.space_size)
                assert array.dtype == dtype, (
                    f"{entry.owner}.{entry.field}: {array.dtype} != {dtype}"
                )


def assert_result_contract(result, snapshot) -> None:
    """A batch result carries the dtypes :class:`BatchRouteResult` documents."""
    assert result.success.dtype == MASK_DTYPE
    assert result.hops.dtype == INT64
    assert result.failure_codes.dtype == INT8
    assert result.final.dtype == snapshot.labels.dtype
    assert result.reroutes.dtype == INT64
    assert result.backtracks.dtype == INT64


def assert_policy_contract(snapshot, pairs) -> None:
    """One hop of keys for ``pairs``: integer keys and bound of one dtype."""
    policy = snapshot.greedy_policy()
    labels = snapshot.labels
    current = labels[snapshot.indices_of(np.array([s for s, _ in pairs]))]
    targets = labels[snapshot.indices_of(np.array([t for _, t in pairs]))]
    rows = snapshot.label_matrix()[snapshot.indices_of(current)]
    classes = snapshot.class_matrix()
    if classes is not None:
        classes = classes[snapshot.indices_of(current)]
    keys, bound = policy.candidate_keys(current, rows, targets, classes)
    assert keys.dtype.kind == "i" and keys.dtype == bound.dtype, (keys.dtype, bound.dtype)
    assert keys.dtype in (labels.dtype, INT64)
    assert policy.distance(current, targets).dtype.kind == "i"


def _route_every_recovery(snapshot, pairs, failure_level: float, seed: int) -> None:
    failed = sample_node_failures(snapshot, failure_level, seed=seed)
    assert failed.dtype == MASK_DTYPE
    damaged = snapshot.with_alive(snapshot.alive & ~failed)
    assert_snapshot_contract(damaged)
    for recovery in RecoveryStrategy:
        router = BatchGreedyRouter(damaged, recovery=recovery, seed=seed)
        assert_result_contract(router.route_pairs(pairs), damaged)
        assert_result_contract(router.route_pairs([]), damaged)


# ---------------------------------------------------------------------------
# Snapshot constructors
# ---------------------------------------------------------------------------


def _overlays(seed: int):
    return [
        ChordNetwork(bits=6),
        ChordNetwork(bits=7, members=list(range(0, 128, 3))),
        CanNetwork(side=6, dimensions=2),
        PlaxtonNetwork(digits=3, base=3),
        KleinbergGridNetwork(side=8, links_per_node=2, seed=seed),
    ]


class TestSnapshotConstructors:
    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        symmetric=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_build_snapshot_and_routes(self, n, symmetric, seed):
        snapshot = build_snapshot(n, seed=seed, symmetric_neighbors=symmetric)
        assert_snapshot_contract(snapshot)
        pairs = LookupWorkload(seed=seed).pairs(list(range(n)), 12)
        _route_every_recovery(snapshot, pairs, 0.3, seed)
        assert_policy_contract(snapshot, pairs)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_compile_snapshot(self, symmetric):
        graph = build_ideal_network(96, seed=4).graph
        snapshot = compile_snapshot(graph, symmetric_neighbors=symmetric)
        assert_snapshot_contract(snapshot)
        live = sorted(graph.labels())
        pairs = LookupWorkload(seed=5).pairs(live, 12)
        _route_every_recovery(snapshot, pairs, 0.3, 5)
        assert_policy_contract(snapshot, pairs)

    def test_empty_graph(self):
        space = RingMetric(16)
        assert_snapshot_contract(build_snapshot(1))
        snapshot = compile_snapshot(OverlayGraph(space))
        assert snapshot.num_nodes == 0
        assert_snapshot_contract(snapshot)
        mirror = DeltaSnapshot.from_graph(OverlayGraph(space))
        assert_mirror_contract(mirror)
        assert_snapshot_contract(mirror.snapshot())
        assert_result_contract(BatchGreedyRouter(snapshot).route_pairs([]), snapshot)

    @pytest.mark.parametrize("index", range(5), ids=["chord", "chord-sparse", "can", "plaxton", "kleinberg"])
    def test_overlay_compile(self, index):
        overlay = _overlays(seed=9)[index]
        snapshot = overlay.compile_snapshot()
        assert_snapshot_contract(snapshot)
        members = overlay.labels(only_alive=False)
        pairs = LookupWorkload(seed=9).pairs(members, 12)
        _route_every_recovery(snapshot, pairs, 0.3, 9)
        assert_policy_contract(snapshot, pairs)
        # Dead table entries ride along as an edge mask.
        holder = members[0]
        overlay.fail_link(holder, overlay.neighbors_of(holder)[0])
        damaged = overlay.compile_snapshot()
        assert damaged.edge_alive is not None
        assert_snapshot_contract(damaged)


# ---------------------------------------------------------------------------
# Delta mirrors
# ---------------------------------------------------------------------------

EVENTS = ("join", "leave", "crash", "revive", "repair", "link-fail")


def _churn(network: P2PNetwork, kind: str, pick: int) -> None:
    graph = network.graph
    live = sorted(graph.labels(only_alive=True))
    if kind == "join":
        free = [label for label in range(network.space.size()) if not graph.has_node(label)]
        if free:
            network.join(free[pick % len(free)])
    elif kind in ("leave", "crash") and len(live) > 3:
        getattr(network, kind)(live[pick % len(live)])
    elif kind == "revive":
        dead = sorted(node.label for node in graph.nodes() if not node.alive)
        if dead:
            graph.revive_node(dead[pick % len(dead)])
    elif kind == "repair":
        network.maintenance.repair_all_batched()
    elif kind == "link-fail":
        holders = [node for node in graph.nodes() if any(l.alive for l in node.long_links)]
        if holders:
            node = holders[pick % len(holders)]
            target = next(link.target for link in node.long_links if link.alive)
            graph.fail_long_link(node.label, target)


class TestDeltaMirrors:
    @pytest.mark.parametrize("symmetric", [True, False])
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        events=st.lists(
            st.tuples(st.sampled_from(EVENTS), st.integers(min_value=0, max_value=10_000)),
            min_size=1,
            max_size=25,
        ),
    )
    def test_structural_mirror_after_every_op(self, seed, symmetric, events):
        network = P2PNetwork(space_size=64, links_per_node=3, seed=seed)
        rng = spawn_rng(seed, "dtype-members")
        network.join_many(sorted(int(x) for x in rng.choice(64, size=20, replace=False)))
        recorder = DeltaRecorder.attach(network.graph)
        mirror = DeltaSnapshot.from_graph(network.graph, symmetric_neighbors=symmetric)
        assert_mirror_contract(mirror)
        try:
            for kind, pick in events:
                _churn(network, kind, pick)
                mirror.apply(recorder.drain())
                assert_mirror_contract(mirror)
                assert_snapshot_contract(mirror.snapshot())
        finally:
            recorder.detach()
        snapshot = mirror.snapshot()
        live = sorted(network.graph.labels(only_alive=True))
        if len(live) >= 2:
            _route_every_recovery(snapshot, LookupWorkload(seed=seed).pairs(live, 8), 0.2, seed)

    @pytest.mark.parametrize("index", range(5), ids=["chord", "chord-sparse", "can", "plaxton", "kleinberg"])
    def test_liveness_mirror_after_crash_and_link_flips(self, index):
        overlay = _overlays(seed=3)[index]
        recorder = DeltaRecorder.attach(overlay)
        mirror = DeltaSnapshot.from_overlay(overlay)
        members = overlay.labels(only_alive=False)
        try:
            for step, holder in enumerate(members[:6]):
                if step % 2:
                    overlay.fail_node(holder)
                else:
                    overlay.fail_link(holder, overlay.neighbors_of(holder)[0])
                mirror.apply(recorder.drain())
                assert_mirror_contract(mirror)
                assert_snapshot_contract(mirror.snapshot())
        finally:
            recorder.detach()
        assert mirror._mask_edge_alive is not None

