"""Property tests for incremental snapshot deltas.

The delta layer's contract (see :mod:`repro.fastpath.delta`) is *field
identity*: after applying any recorded join/leave/crash/repair sequence, the
delta-updated snapshot equals a fresh ``compile_snapshot()`` of the mutated
overlay — same labels, same alive mask, same CSR arrays entry for entry.
These tests generate randomized event sequences and assert exactly that:

* on the paper's own power-law overlay (:class:`P2PNetwork`, the structural
  tier, full event vocabulary), with parity checked at every intermediate
  checkpoint as well as at the end;
* on every baseline Overlay protocol — Chord (dense and sparse), CAN (2-d
  and 3-d), Plaxton, Kleinberg — through the liveness tier (crash/revive
  flips, the churn vocabulary those topologies support without a table
  rebuild).

A final routing check asserts the delta-produced snapshot is not merely
array-equal but *behaviourally* interchangeable: a batch router over it
reproduces the scalar router walk on the mutated overlay.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    CanNetwork,
    ChordNetwork,
    KleinbergGridNetwork,
    PlaxtonNetwork,
)
from repro.core.network import P2PNetwork
from repro.core.routing import GreedyRouter
from repro.fastpath import (
    BatchGreedyRouter,
    DeltaRecorder,
    DeltaSnapshot,
    compile_snapshot,
)
from repro.fastpath.delta import assert_snapshots_identical
from repro.simulation.workload import LookupWorkload
from repro.util.rng import spawn_rng


# ---------------------------------------------------------------------------
# Structural tier: the power-law overlay under full churn
# ---------------------------------------------------------------------------

EVENT_KINDS = ("join", "leave", "crash", "revive", "repair", "repair-batched")


@st.composite
def churn_script(draw):
    """A seed plus a randomized sequence of churn events."""
    seed = draw(st.integers(min_value=0, max_value=50))
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(EVENT_KINDS),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return seed, events


def _apply_event(network: P2PNetwork, kind: str, pick: int, rng) -> None:
    """Apply one event, choosing the subject from the current membership."""
    graph = network.graph
    space = network.space.size()
    if kind == "join":
        free = [label for label in range(space) if not graph.has_node(label)]
        if free:
            network.join(free[pick % len(free)])
    elif kind == "leave":
        live = sorted(graph.labels(only_alive=True))
        if len(live) > 3:
            network.leave(live[pick % len(live)])
    elif kind == "crash":
        live = sorted(graph.labels(only_alive=True))
        if len(live) > 3:
            network.crash(live[pick % len(live)])
    elif kind == "revive":
        dead = sorted(
            node.label for node in graph.nodes() if not node.alive
        )
        if dead:
            graph.revive_node(dead[pick % len(dead)])
    elif kind == "repair":
        network.maintenance.repair_all()
    elif kind == "repair-batched":
        network.maintenance.repair_all_batched()
    else:  # pragma: no cover
        raise AssertionError(kind)


class TestStructuralDeltaParity:
    @settings(max_examples=30, deadline=None)
    @given(churn_script())
    def test_delta_snapshot_equals_fresh_compile(self, script):
        """Randomized join/leave/crash/repair: delta == compile, at every step."""
        seed, events = script
        network = P2PNetwork(space_size=64, links_per_node=3, seed=seed)
        rng = spawn_rng(seed, "delta-test-members")
        members = sorted(
            int(x) for x in rng.choice(64, size=20, replace=False)
        )
        network.join_many(members)

        recorder = DeltaRecorder.attach(network.graph)
        mirror = DeltaSnapshot.from_graph(network.graph)
        try:
            for kind, pick in events:
                _apply_event(network, kind, pick, rng)
                mirror.apply(recorder.drain())
                assert_snapshots_identical(
                    mirror.snapshot(),
                    compile_snapshot(network.graph),
                    context=f"after {kind}",
                )
        finally:
            recorder.detach()

    @settings(max_examples=10, deadline=None)
    @given(churn_script(), st.integers(min_value=2, max_value=12))
    def test_delta_snapshot_routes_like_the_mutated_overlay(self, script, queries):
        """The delta snapshot is behaviourally live: batch == scalar routes."""
        seed, events = script
        network = P2PNetwork(space_size=64, links_per_node=3, seed=seed)
        rng = spawn_rng(seed, "delta-route-members")
        members = sorted(int(x) for x in rng.choice(64, size=24, replace=False))
        network.join_many(members)

        recorder = DeltaRecorder.attach(network.graph)
        mirror = DeltaSnapshot.from_graph(network.graph)
        try:
            for kind, pick in events:
                _apply_event(network, kind, pick, rng)
            mirror.apply(recorder.drain())
        finally:
            recorder.detach()

        live = sorted(network.graph.labels(only_alive=True))
        if len(live) < 2:
            return
        pairs = LookupWorkload(seed=seed + 1).pairs(live, queries)
        batch = BatchGreedyRouter(mirror.snapshot())
        scalar = GreedyRouter(network.graph)
        result = batch.route_pairs(pairs, record_paths=True)
        for index, (source, target) in enumerate(pairs):
            reference = scalar.route(source, target)
            assert bool(result.success[index]) == reference.success
            assert int(result.hops[index]) == reference.hops
            assert result.paths[index] == reference.path


# ---------------------------------------------------------------------------
# Liveness tier: every baseline Overlay protocol
# ---------------------------------------------------------------------------


def _build_overlay(protocol: str, seed: int):
    if protocol == "chord":
        return ChordNetwork(bits=6)
    if protocol == "chord-sparse":
        return ChordNetwork(bits=7, members=list(range(0, 128, 3)))
    if protocol == "can":
        return CanNetwork(side=6, dimensions=2)
    if protocol == "can-3d":
        return CanNetwork(side=4, dimensions=3)
    if protocol == "plaxton":
        return PlaxtonNetwork(digits=3, base=3)
    if protocol == "kleinberg":
        return KleinbergGridNetwork(side=8, links_per_node=2, seed=seed)
    raise AssertionError(protocol)


BASELINE_PROTOCOLS = (
    "chord", "chord-sparse", "can", "can-3d", "plaxton", "kleinberg",
)


class TestLivenessDeltaParity:
    @settings(max_examples=40, deadline=None)
    @given(
        protocol=st.sampled_from(BASELINE_PROTOCOLS),
        seed=st.integers(min_value=0, max_value=30),
        flips=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10_000)),
            min_size=1,
            max_size=25,
        ),
    )
    def test_crash_revive_parity_on_every_protocol(self, protocol, seed, flips):
        """Crash/revive flips through the mirror == a fresh protocol compile."""
        overlay = _build_overlay(protocol, seed)
        mirror = DeltaSnapshot.from_snapshot(overlay.compile_snapshot())
        assert not mirror.structural
        members = overlay.labels(only_alive=False)
        for crash, pick in flips:
            label = members[pick % len(members)]
            if crash:
                overlay.fail_node(label)
                mirror.crash([label])
            else:
                # Baselines have no single-node revive; mirror the full
                # liveness reset that OverlayMixin.repair performs.
                overlay.repair()
                mirror.revive(members)
        assert_snapshots_identical(
            mirror.snapshot(), overlay.compile_snapshot(), context=protocol
        )

    @settings(max_examples=15, deadline=None)
    @given(
        protocol=st.sampled_from(BASELINE_PROTOCOLS),
        seed=st.integers(min_value=0, max_value=30),
        level=st.sampled_from([0.1, 0.3, 0.5]),
    )
    def test_bulk_failure_parity(self, protocol, seed, level):
        """fail_fraction mirrored as one bulk crash matches a fresh compile."""
        overlay = _build_overlay(protocol, seed)
        mirror = DeltaSnapshot.from_snapshot(overlay.compile_snapshot())
        victims = overlay.fail_fraction(level, seed=seed + 1)
        mirror.crash(victims)
        assert_snapshots_identical(
            mirror.snapshot(), overlay.compile_snapshot(), context=protocol
        )


# ---------------------------------------------------------------------------
# Fault schedules: the full typed event vocabulary, both driver backends
# ---------------------------------------------------------------------------


class TestFaultScheduleParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_graph_backend_field_identity(self, seed):
        """Any random schedule on the power-law overlay: delta == compile,
        checked after every event (structural tier, link-liveness ops)."""
        from repro.core.builder import build_ideal_network
        from repro.faults import FaultDriver, random_schedule

        build = build_ideal_network(128, seed=seed)
        mirror = DeltaSnapshot.from_graph(build.graph)
        recorder = DeltaRecorder.attach(build.graph)

        def check(index, event, entry):
            mirror.apply(recorder.drain())
            assert_snapshots_identical(
                mirror.snapshot(),
                compile_snapshot(build.graph),
                context=f"{event.kind}@{index}",
            )

        FaultDriver(build, random_schedule(seed, length=8), on_event=check).run()

    @settings(max_examples=25, deadline=None)
    @given(
        protocol=st.sampled_from(BASELINE_PROTOCOLS),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_table_backend_field_identity(self, protocol, seed):
        """Any random schedule on any baseline protocol: the overlay-backed
        liveness mirror (edge masks + OP_REBUILD) == a fresh compile after
        every event."""
        from repro.faults import FaultDriver, random_schedule

        overlay = _build_overlay(protocol, seed)
        mirror = DeltaSnapshot.from_overlay(overlay)
        recorder = DeltaRecorder.attach(overlay)

        def check(index, event, entry):
            mirror.apply(recorder.drain())
            assert_snapshots_identical(
                mirror.snapshot(),
                overlay.compile_snapshot(),
                context=f"{protocol}:{event.kind}@{index}",
            )

        FaultDriver(overlay, random_schedule(seed, length=6), on_event=check).run()

    @settings(max_examples=10, deadline=None)
    @given(
        protocol=st.sampled_from(BASELINE_PROTOCOLS),
        seed=st.integers(min_value=0, max_value=60),
        queries=st.integers(min_value=2, max_value=10),
    )
    def test_post_schedule_routing_parity(self, protocol, seed, queries):
        """After a full schedule, batch routes over the mirror snapshot match
        the mutated overlay's scalar walk (edge liveness included)."""
        from repro.faults import FaultDriver, random_schedule

        overlay = _build_overlay(protocol, seed)
        mirror = DeltaSnapshot.from_overlay(overlay)
        recorder = DeltaRecorder.attach(overlay)
        FaultDriver(overlay, random_schedule(seed, length=5)).run()
        mirror.apply(recorder.drain())

        live = overlay.labels(only_alive=True)
        if len(live) < 2:
            return
        pairs = LookupWorkload(seed=seed + 1).pairs(live, queries)
        batch = BatchGreedyRouter(mirror.snapshot(), hop_limit=overlay.hop_limit)
        result = batch.route_pairs(pairs, record_paths=True)
        for index, (source, target) in enumerate(pairs):
            reference = overlay.route(source, target)
            assert bool(result.success[index]) == reference.success
            assert result.paths[index] == reference.path
