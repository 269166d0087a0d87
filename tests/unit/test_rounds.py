"""Unit tests for the shared round driver: engine session and spec decoding."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.baselines.chord import ChordNetwork
from repro.core.construction import build_heuristic_network
from repro.core.maintenance import MaintenanceDaemon
from repro.core.routing import RecoveryStrategy
from repro.experiments import ablations, baseline_comparison
from repro.faults import FaultDriver, degradation_schedule
from repro.scenarios import SpecError, churn, get_scenario, run, service
from repro.scenarios.rounds import EngineSession
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


def _chord_batches(engine: str) -> list[tuple]:
    overlay = ChordNetwork(bits=7)
    lookups = LookupWorkload(seed=31)
    schedule = degradation_schedule(0.25, seed=32)
    batches: list[tuple] = []
    with EngineSession(overlay, engine, RecoveryStrategy.BACKTRACK, route_seed=33) as session:
        assert session.engine_used == engine
        assert (session.mirror is None) == (engine == "object")

        def on_event(index, event, entry) -> None:
            pairs = lookups.pairs(session.live_labels(), 50)
            batches.append(session.route(pairs))

        FaultDriver(overlay, schedule, mirror=session.mirror, on_event=on_event).run()
    return batches


def test_table_backed_overlay_follows_fault_driver_through_mirror():
    object_batches = _chord_batches("object")
    fastpath_batches = _chord_batches("fastpath")
    assert len(object_batches) == len(fastpath_batches) > 0
    for (obj_success, obj_hops), (fast_success, fast_hops) in zip(
        object_batches, fastpath_batches
    ):
        assert np.array_equal(obj_success, fast_success)
        assert np.array_equal(obj_hops, fast_hops)
    assert not all(success.all() for success, _hops in object_batches)


def test_recorder_detached_when_body_raises():
    construction = build_heuristic_network(128, occupied=48, seed=41)
    graph = construction.graph
    with pytest.raises(RuntimeError, match="boom"):
        with EngineSession(construction, "fastpath", RecoveryStrategy.TERMINATE, 42):
            assert graph.observer is not None
            raise RuntimeError("boom")
    assert graph.observer is None


REJECTED_SPECS = [
    *(
        (scenario, f"extras.{key}", value)
        for scenario in ("churn", "maintenance-cost", "service")
        for key, value in (
            ("crash_fraction", -0.1), ("crash_fraction", 1.5), ("latency_sigma", -1.0),
        )
    ),
    # The echoed spec must be what ran: no rounding to the next power of two,
    # no silently dropped failure levels.
    ("baselines", "topology.nodes", 1000),
    ("baselines", "failures.levels", (0.2, 0.6)),
    ("ablation-backtrack", "failures.levels", (0.2, 0.6)),
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
    for module in (ablations, baseline_comparison):
        monkeypatch.setattr(module, "build_ideal_network", no_build)
    spec = get_scenario(scenario).make_spec(overrides={"topology.nodes": 128})
    with pytest.raises(SpecError, match=re.escape(field)):
        run(spec.with_overrides({field: value}))
