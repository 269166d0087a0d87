"""Graceful-degradation scenarios: routing quality along a fault timeline.

The paper's robustness claims (Sections 4.3.3, 4.3.4, 6) are measured with
one static failure model per data point.  The ``degradation`` scenario
instead replays the canonical escalating
:func:`~repro.faults.schedule.degradation_schedule` — independent link
failures, a crash wave, a targeted attack on the highest-degree nodes, a
correlated region outage, then the overlay's own repair machinery — and
measures routing after *every* event, producing the degradation curve the
graceful-degradation argument actually talks about.

The sweep axis is fault intensity (``failures.levels``); ``topology.protocol``
selects the overlay family (the paper's power-law overlay by default, or any
of the structured baselines), and ``engine`` selects the routing engine.  An
:class:`~repro.scenarios.rounds.EngineSession` keeps the router current with
the overlay on either engine (on ``engine="fastpath"`` through the deltas
its recorder observes the fault driver make, never recompiling outside a
table rebuild); the reported numbers are
identical across engines at the same seed, which the tier-1 golden digests
assert.
"""

from __future__ import annotations

import math

from repro.baselines.can import CanNetwork
from repro.baselines.chord import ChordNetwork
from repro.baselines.kleinberg_grid import KleinbergGridNetwork
from repro.baselines.plaxton import PlaxtonNetwork
from repro.core.builder import build_ideal_network
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable
from repro.faults import FaultDriver, degradation_schedule
from repro.scenarios.registry import register_scenario
from repro.scenarios.rounds import EngineSession
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import (
    FailureSpec,
    RoutingSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
)
from repro.simulation.workload import LookupWorkload
from repro.telemetry.core import spanned as telemetry_spanned
from repro.util.rng import derive_seed

__all__ = ["degradation_spec"]


def degradation_spec(
    nodes: int = 1 << 10,
    protocol: str = "",
    intensities: tuple[float, ...] = (0.05, 0.15, 0.3),
    searches: int = 200,
    recovery: str = RecoveryStrategy.BACKTRACK.value,
    seed: int = 0,
    engine: str = "object",
    targeted_count: int = 0,
    include_stabilize: bool = True,
) -> ScenarioSpec:
    """Spec for the ``"degradation"`` scenario.

    ``failures.levels`` carries the fault-intensity sweep (each level runs
    the full escalating schedule at that intensity on a fresh overlay);
    ``topology.protocol`` picks the overlay family.  ``extras.targeted_count``
    overrides the targeted-attack victim count (0 means "scaled to the
    intensity"); ``extras.include_stabilize`` drops the stabilize event when
    false.  Grid-ready, e.g.::

        repro sweep degradation --grid failures.levels=0.1,0.2,0.4 \\
            --grid engine=object,fastpath --grid topology.protocol=chord,can
    """
    return ScenarioSpec(
        scenario="degradation",
        topology=TopologySpec(kind="ideal", nodes=nodes, protocol=protocol),
        failures=FailureSpec(kind="links", levels=tuple(intensities)),
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
        extras={
            "targeted_count": targeted_count,
            "include_stabilize": include_stabilize,
        },
    )


@telemetry_spanned("build")
def _build_system(protocol: str, nodes: int, seed: int):
    """Build one overlay family at (approximately) ``nodes`` members.

    Returns the object handed to :class:`~repro.faults.FaultDriver`: the
    construction result (exposing ``.graph``) for the paper's power-law
    overlay, or the protocol instance itself for the table baselines — the
    same sizing recipes as the ``baselines`` comparison, so the families are
    directly comparable.
    """
    bits = max(2, int(round(math.log2(nodes))))
    side = max(2, int(round(math.sqrt(nodes))))
    if protocol in ("", "power-law"):
        return build_ideal_network(nodes, seed=seed)
    if protocol == "chord":
        return ChordNetwork(bits=bits)
    if protocol == "kleinberg":
        return KleinbergGridNetwork(side=side, links_per_node=max(1, bits), seed=seed)
    if protocol == "can":
        return CanNetwork(side=side, dimensions=2)
    if protocol == "plaxton":
        return PlaxtonNetwork(digits=max(1, int(round(bits / 2))), base=4)
    raise SpecError(f"unknown degradation protocol {protocol!r}")


def _repair_actions(entry: dict) -> int:
    """Repair cost of one event entry, engine-independently.

    Repair events report revived nodes + links; stabilize reports the table
    rebuild size (every member recomputes its table).  Both are derived from
    the overlay itself, so the column is identical across engines.
    """
    return int(
        entry.get("revived_nodes", 0)
        + entry.get("revived_links", 0)
        + entry.get("members", 0)
    )


def _run_intensity(
    spec: ScenarioSpec, intensity: float, seed: int
) -> tuple[list[dict], str]:
    """Replay one escalating schedule at ``intensity``; measure after each event.

    Returns (per-event measurement rows, engine used).  The first row is the
    healthy baseline (``event=-1``); each following row measures routing
    right after one schedule event.  ``hop_stretch`` is the mean successful
    hop count relative to the healthy baseline.
    """
    searches = spec.workload.searches
    system = _build_system(
        spec.topology.protocol,
        spec.topology.nodes,
        seed=derive_seed(seed, "degradation-build"),
    )
    lookups = LookupWorkload(seed=derive_seed(seed, "degradation-lookups"))
    schedule = degradation_schedule(
        intensity,
        seed=derive_seed(seed, "degradation-schedule"),
        targeted_count=int(spec.extra("targeted_count", 0)) or None,
        include_stabilize=bool(spec.extra("include_stabilize", True)),
    )
    rows: list[dict] = []
    with EngineSession(
        system,
        spec.engine,
        spec.routing.recovery_strategy(),
        derive_seed(seed, "degradation-route"),
    ) as session:

        def measure(index: int, kind: str, entry: dict) -> None:
            live = sorted(session.live_labels())
            success_rate = mean_hops = 0.0
            if len(live) >= 2 and searches > 0:
                success, hops = session.route(lookups.pairs(live, searches))
                delivered = hops[success]
                success_rate = float(success.mean())
                mean_hops = float(delivered.mean()) if delivered.size else 0.0
            # The first call is the healthy baseline every stretch is relative to.
            healthy_hops = rows[0]["mean_hops"] if rows else mean_hops
            rows.append(
                {
                    "event": index,
                    "kind": kind,
                    "live_nodes": len(live),
                    "failed_nodes": int(entry.get("failed_nodes", 0)),
                    "failed_links": int(entry.get("failed_links", 0)),
                    "repair_actions": _repair_actions(entry),
                    "success_rate": success_rate,
                    "mean_hops": mean_hops,
                    "hop_stretch": mean_hops / healthy_hops if healthy_hops else 0.0,
                }
            )

        measure(-1, "healthy", {})
        FaultDriver(
            system,
            schedule,
            on_event=lambda index, event, entry: measure(index, event.kind, entry),
        ).run()
    return rows, session.engine_used


@register_scenario(
    "degradation",
    description="graceful degradation under an escalating fault schedule: routing success, hop stretch, and repair cost after every fault event (all protocols, both engines, delta-driven fastpath)",
    defaults=degradation_spec(),
)
def _degradation(spec: ScenarioSpec) -> ScenarioOutcome:
    """One table per ``failures.levels`` intensity; rows follow the schedule."""
    intensities = [float(level) for level in spec.failures.levels] or [0.15]
    protocol = spec.topology.protocol
    tables: list[ExperimentTable] = []
    raw: list[tuple[float, list[dict]]] = []
    engine_used = spec.engine
    columns = [
        "event", "kind", "live_nodes", "failed_nodes", "failed_links",
        "repair_actions", "success_rate", "mean_hops", "hop_stretch",
    ]
    for index, intensity in enumerate(intensities):
        # Derived per level, so a level's numbers are stable under sweep
        # reshaping (same convention as the churn scenarios).
        rows, engine_used = _run_intensity(
            spec, intensity, derive_seed(spec.seed, "degradation", index)
        )
        raw.append((intensity, rows))
        table = ExperimentTable(
            title=(
                f"degradation: {protocol or 'power-law'}, n={spec.topology.nodes}, "
                f"intensity {intensity:.3f}, recovery {spec.routing.recovery}"
            ),
            columns=columns,
            notes="event -1 is the healthy baseline; hop_stretch is mean "
            "successful hops relative to it; repair_actions counts revived "
            "nodes/links plus stabilize table rebuilds.",
        )
        for row in rows:
            table.add_row(
                row["event"], row["kind"], row["live_nodes"], row["failed_nodes"],
                row["failed_links"], row["repair_actions"],
                round(row["success_rate"], 6), round(row["mean_hops"], 6),
                round(row["hop_stretch"], 6),
            )
        tables.append(table)
    return ScenarioOutcome(tables=tables, raw=raw, engine_used=engine_used)
