"""Unit tests for the shared round driver: engine session and spec decoding."""

from __future__ import annotations

import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import CanNetwork, ChordNetwork, KleinbergGridNetwork, PlaxtonNetwork
from repro.core.construction import build_heuristic_network
from repro.core.graph import OverlayGraph
from repro.core.maintenance import MaintenanceDaemon
from repro.core.metric import TorusMetric
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.experiments import ablations, baseline_comparison
from repro.fastpath.delta import assert_snapshots_identical
from repro.faults import FaultDriver, degradation_schedule
from repro.scenarios import SpecError, churn, get_scenario, rounds, run, service
from repro.scenarios.rounds import (
    EngineSession,
    FastpathFallbackWarning,
    IdealNetwork,
)
from repro.simulation.workload import LookupWorkload

RECOVERIES = list(RecoveryStrategy)


def _churned_batches(engine: str, recovery: RecoveryStrategy) -> list[tuple]:
    """Route after each step of an interleaved join/leave/crash/repair sequence."""
    construction = build_heuristic_network(256, occupied=96, seed=21)
    graph = construction.graph
    daemon = MaintenanceDaemon(construction)
    lookups = LookupWorkload(seed=22)
    free = [label for label in range(256) if not graph.has_node(label)]
    members = sorted(graph.labels())
    batches: list[tuple] = []
    with EngineSession(construction, engine, recovery, route_seed=23) as session:
        assert session.engine_used == engine

        def route() -> None:
            pairs = lookups.pairs(session.live_labels(), 60)
            batches.append(session.route(pairs))

        route()
        # Joins at the low end of the space land at the end of the node
        # table, taking it out of sorted-label order.
        for label in free[:6]:
            construction.add_point(label)
        for label in members[10:40:3]:
            graph.fail_node(label)
        route()
        for label in members[50:56]:
            daemon.handle_departure(label)
        for label in free[-4:]:
            construction.add_point(label)
        graph.fail_node(members[70])
        route()
        daemon.repair_all_batched()
        route()
        assert graph.labels(only_alive=True) != sorted(graph.labels(only_alive=True))
    assert graph.observer is None
    return batches


@pytest.mark.parametrize("recovery", RECOVERIES, ids=lambda r: r.value)
def test_engines_route_identically_through_interleaved_churn(recovery):
    object_batches = _churned_batches("object", recovery)
    fastpath_batches = _churned_batches("fastpath", recovery)
    assert len(object_batches) == len(fastpath_batches) == 4
    for (obj_success, obj_hops), (fast_success, fast_hops) in zip(
        object_batches, fastpath_batches
    ):
        assert np.array_equal(obj_success, fast_success)
        assert np.array_equal(obj_hops, fast_hops)
    if recovery is RecoveryStrategy.TERMINATE:
        # Lookups do hit the crashed nodes, so the other two strategies have
        # dead ends to recover from (and random re-route has detours to draw).
        assert not all(success.all() for success, _hops in object_batches)


TABLE_SYSTEMS = {
    "chord": lambda: ChordNetwork(bits=7),
    "can": lambda: CanNetwork(side=11, dimensions=2),
    "kleinberg": lambda: KleinbergGridNetwork(side=11, links_per_node=3, seed=34),
    "plaxton": lambda: PlaxtonNetwork(digits=3, base=5),
}


def _replay_schedule(overlay, step) -> None:
    FaultDriver(
        overlay,
        degradation_schedule(0.25, seed=32),
        on_event=lambda index, event, entry: step(),
    ).run()


def _mutate_directly(overlay, step) -> None:
    """Any caller of the overlay's own mutators, with no session in hand."""
    members = overlay.labels()
    for label in members[::3]:
        overlay.fail_node(label)
    step()
    links = [(holder, overlay.neighbors_of(holder)[0]) for holder in members[1::3]]
    for holder, target in links:
        overlay.fail_link(holder, target)
    step()
    for label in members[::6]:
        overlay.revive_node(label)
    for holder, target in links[::2]:
        overlay.revive_link(holder, target)
    step()
    if isinstance(overlay, ChordNetwork):
        overlay.stabilize()
        step()
        # The rebuilt ring is observed like the original one.
        first, *_rest, last = overlay.labels()
        overlay.fail_node(last)
        overlay.fail_link(first, overlay.neighbors_of(first)[0])
        step()
    overlay.repair()
    step()


def _table_batches(protocol: str, mutate, engine: str) -> list[tuple]:
    overlay = TABLE_SYSTEMS[protocol]()
    lookups = LookupWorkload(seed=31)
    batches: list[tuple] = []
    with EngineSession(overlay, engine, RecoveryStrategy.BACKTRACK, route_seed=33) as session:
        assert session.engine_used == engine
        assert (session.mirror is None) == (engine == "object")

        def step() -> None:
            pairs = lookups.pairs(session.live_labels(), 50)
            batches.append(session.route(pairs))
            if session.mirror is not None:
                assert_snapshots_identical(
                    session.mirror.snapshot(), overlay.compile_snapshot(),
                    context=f"step {len(batches)}",
                )

        mutate(overlay, step)
    assert overlay.observer is None
    return batches


def _assert_table_parity(protocol: str, mutate) -> None:
    object_batches = _table_batches(protocol, mutate, "object")
    fastpath_batches = _table_batches(protocol, mutate, "fastpath")
    assert len(object_batches) == len(fastpath_batches) > 0
    for (obj_success, obj_hops), (fast_success, fast_hops) in zip(
        object_batches, fastpath_batches
    ):
        assert np.array_equal(obj_success, fast_success)
        assert np.array_equal(obj_hops, fast_hops)
    assert not all(success.all() for success, _hops in object_batches)


def test_table_backed_overlay_follows_fault_driver_through_mirror():
    _assert_table_parity("chord", _replay_schedule)


@pytest.mark.parametrize("protocol", list(TABLE_SYSTEMS))
def test_direct_mutations_of_a_table_overlay_reach_the_mirror(protocol):
    # The mirror hears of a mutation from the overlay, not from its caller.
    _assert_table_parity(protocol, _mutate_directly)


def test_recorder_detached_when_body_raises():
    construction = build_heuristic_network(128, occupied=48, seed=41)
    graph = construction.graph
    with pytest.raises(RuntimeError, match="boom"):
        with EngineSession(construction, "fastpath", RecoveryStrategy.TERMINATE, 42):
            assert graph.observer is not None
            raise RuntimeError("boom")
    assert graph.observer is None


STATIC_SYSTEMS = {
    # Parameters only: the fastpath side never materialises an object graph.
    "ideal": lambda: IdealNetwork(256, 6, seed=51),
    # Random arrival order: node-table order differs from sorted-label order.
    "constructed": lambda: build_heuristic_network(256, seed=52),
    "chord": lambda: ChordNetwork(bits=8),
}


def _static_batches(system_name: str, engine: str) -> list[tuple]:
    """Intact, 30%-failed and restored measurements under every recovery."""
    batches: list[tuple] = []
    with EngineSession(
        STATIC_SYSTEMS[system_name](), engine, RecoveryStrategy.TERMINATE, 53
    ) as session:
        assert session.engine_used == engine
        for phase in ("intact", "failed", "restored"):
            if phase == "failed":
                session.fail_nodes(0.3, seed=54)
            elif phase == "restored":
                session.restore()
            live = session.live_labels()
            assert len(live) == (179 if phase == "failed" else 256)
            pairs = LookupWorkload(seed=55).pairs(live, 40)
            for recovery in RECOVERIES:
                session.rearm(recovery, 56)
                batches.append(session.route(pairs))
    return batches


@pytest.mark.parametrize("system_name", list(STATIC_SYSTEMS))
def test_session_parity_all_strategies(system_name):
    object_batches = _static_batches(system_name, "object")
    fastpath_batches = _static_batches(system_name, "fastpath")
    assert len(object_batches) == len(fastpath_batches) == 9
    for (obj_success, obj_hops), (fast_success, fast_hops) in zip(
        object_batches, fastpath_batches
    ):
        assert np.array_equal(obj_success, fast_success)
        assert np.array_equal(obj_hops, fast_hops)
    intact, failed, restored = object_batches[0], object_batches[3], object_batches[6]
    assert intact[0].all()
    if system_name != "chord":  # successor lists deliver all 40 regardless
        assert not failed[0].all()
    assert np.array_equal(intact[1], restored[1])


def test_ideal_network_session_has_no_graph_on_fastpath():
    network = IdealNetwork(128, 4, seed=2)
    with EngineSession(network, "object", RecoveryStrategy.TERMINATE, 0) as session:
        assert session.engine_used == "object"
        assert session.graph is not None and session.mirror is None
        object_labels = session.live_labels()
    with EngineSession(network, "fastpath", RecoveryStrategy.TERMINATE, 0) as session:
        assert session.engine_used == "fastpath"
        assert session.graph is None and not session.mirror.structural
        assert session.live_labels() == object_labels == list(range(128))
        success, _hops = session.route([(0, 64), (3, 99)])
        assert success.all()
        session.fail_nodes(0.0, seed=1)
        assert session.live_labels() == object_labels


def test_unsupported_space_falls_back_with_warning():
    # The torus has no 1-D array mirror; the session downgrades loudly
    # instead of failing the sweep.
    system = SimpleNamespace(graph=OverlayGraph(TorusMetric(side=6, dimensions=2)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with EngineSession(system, "fastpath", RecoveryStrategy.TERMINATE, 0) as session:
            assert session.engine_used == "object"
            assert session.mirror is None and system.graph.observer is None
            success, hops = session.route([])
    assert success.size == hops.size == 0
    assert [w.category for w in caught] == [FastpathFallbackWarning]


@pytest.mark.parametrize("engine", ["object", "fastpath"])
def test_rearm_restarts_the_reroute_stream_like_a_fresh_router(engine):
    construction = build_heuristic_network(256, seed=61)
    reroute = RecoveryStrategy.RANDOM_REROUTE
    with EngineSession(construction, engine, RecoveryStrategy.TERMINATE, 62) as session:
        session.fail_nodes(0.4, seed=63)
        pairs = LookupWorkload(seed=64).pairs(session.live_labels(), 80)
        terminated = session.route(pairs)[0]
        session.rearm(reroute, 65)
        first = session.route(pairs)
        session.rearm(reroute, 65)
        again = session.route(pairs)
        fresh = GreedyRouter(construction.graph, recovery=reroute, seed=65)
        reference = [fresh.route(source, target) for source, target in pairs]
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
    assert first[0].tolist() == [route.success for route in reference]
    assert first[1].tolist() == [route.hops for route in reference]
    # Detours were drawn: re-routing delivered lookups terminate gave up on.
    assert first[0].sum() > terminated.sum()


REJECTED_SPECS = [
    *(
        (scenario, f"extras.{key}", value)
        for scenario in ("churn", "maintenance-cost", "service")
        for key, value in (
            ("crash_fraction", -0.1), ("crash_fraction", 1.5), ("latency_sigma", -1.0),
            ("latency_sigma", float("nan")), ("latency_sigma", float("inf")),
            ("latency_median", float("nan")), ("latency_median", float("inf")),
        )
    ),
    # The echoed spec must be what ran: no rounding to the next power of two,
    # no silently dropped failure levels.
    ("baselines", "topology.nodes", 1000),
    ("baselines", "failures.levels", (0.2, 0.6)),
    ("ablation-backtrack", "failures.levels", (0.2, 0.6)),
    # A scenario pinned to one recovery strategy refuses the others.
    ("ablation-backtrack", "routing.recovery", "terminate"),
    ("ablation-backtrack", "routing.recovery", "random-reroute"),
    ("byzantine", "routing.recovery", "backtrack"),
    ("byzantine", "routing.recovery", "random-reroute"),
    # Knobs no scenario reads are refused, not echoed and ignored.
    ("churn", "routing.mode", "one-sided"),
    ("churn", "routing.strict_best_neighbor", True),
    ("churn", "routing.backtrack_depth", 1),
    ("figure7", "topology.kind", "deterministic"),
    ("figure7", "topology.exponent", 2.5),
    ("table1", "topology.base", 4),
    ("table1", "topology.variant", "powers"),
    ("figure7", "failures.kind", "links"),
]


@pytest.mark.parametrize(
    "scenario,field,value",
    REJECTED_SPECS,
    ids=lambda arg: arg.removeprefix("extras.") if isinstance(arg, str) else None,
)
def test_out_of_range_extras_rejected_before_any_build(scenario, field, value, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the network was built before the spec was validated")

    for module in (churn, service):
        monkeypatch.setattr(module, "build_heuristic_network", no_build)
    for module in (ablations, baseline_comparison, rounds):
        monkeypatch.setattr(module, "build_ideal_network", no_build)
    spec = get_scenario(scenario).make_spec(overrides={"topology.nodes": 128})
    with pytest.raises(SpecError, match=re.escape(field)):
        run(spec.with_overrides({field: value}))


@pytest.mark.parametrize(
    "field,value", [("routing.mode", "one-sided"), ("routing.strict_best_neighbor", True)]
)
def test_routing_values_no_router_implements_are_refused_as_such(field, value):
    spec = get_scenario("churn").make_spec(overrides={"topology.nodes": 128})
    with pytest.raises(SpecError, match="no router implements any other value"):
        run(spec.with_overrides({field: value}))


def test_a_backtrack_depth_is_refused_with_the_ablation_that_sweeps_it():
    spec = get_scenario("churn").make_spec(overrides={"topology.nodes": 128})
    with pytest.raises(SpecError, match=re.escape("`ablation-backtrack` (`extras.depths`)")):
        run(spec.with_overrides({"routing.backtrack_depth": 1}))
