"""Churn and maintenance scenarios: the dynamic half of the paper, registered.

The paper's central claim is not that the power-law overlay routes well once,
but that it *stays* routable while nodes join, leave, and crash — with repair
work cheap enough to amortise over searches (Sections 2 and 5).  These
scenarios make that claim measurable through the same declarative API as the
static figures.  Each builds its own Section-5 heuristic network and hands it
to the shared round driver (:mod:`repro.scenarios.rounds`), which applies the
:class:`~repro.simulation.workload.ChurnWorkload` join/leave/crash schedule,
runs the :class:`~repro.core.maintenance.MaintenanceDaemon` repair pass, and
keeps a router current with the mutating overlay on either engine — the two
report identical numbers, which the tier-1 golden digests assert.

Registered scenarios
--------------------
``churn``
    Round-by-round evolution under a given churn rate: membership, repair
    traffic, lookup success/hops/latency per round.  Grid-ready axes:
    ``failures.levels`` (churn rate), ``topology.nodes``,
    ``routing.recovery``, ``engine``.
``maintenance-cost``
    Repair traffic as a function of churn rate: one row per rate level with
    aggregate maintenance counters, messages per event, and a post-churn
    routability probe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.construction import build_heuristic_network
from repro.core.maintenance import MaintenanceReport
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable
from repro.scenarios.registry import register_scenario
from repro.scenarios.rounds import (
    RoundParameters,
    RoundRow,
    decode_round_spec,
    query_latencies,
    run_rounds,
)
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import (
    FailureSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.util.rng import derive_seed

__all__ = ["churn_spec", "maintenance_cost_spec"]


@dataclass
class _Lookups:
    """Lookup quality of one round's batch."""

    success_rate: float = 0.0
    mean_hops: float = 0.0
    mean_latency: float = 0.0


def _run_rate(
    parameters: RoundParameters, churn_rate: float, seed: int
) -> tuple[list[RoundRow], list[_Lookups], str]:
    """One independently built network under one churn rate.

    Returns (rows, per-round lookup quality, engine used); a round that had
    too few live nodes to route keeps the all-zero :class:`_Lookups`.
    """
    quality = [_Lookups() for _ in range(parameters.rounds)]

    def on_batch(session, round_index, burst_index, pairs) -> None:
        success, hops = session.route(pairs)
        delivered = hops[success]
        latencies = query_latencies(
            delivered, parameters, derive_seed(seed, "churn-latency", round_index)
        )
        quality[round_index] = _Lookups(
            success_rate=float(success.mean()) if success.size else 0.0,
            mean_hops=float(delivered.mean()) if delivered.size else 0.0,
            mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        )

    rows, engine_used = run_rounds(
        build_heuristic_network,
        parameters,
        churn_rate=churn_rate,
        seed=seed,
        label="churn",
        on_batch=on_batch,
    )
    return rows, quality, engine_used


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------


def churn_spec(
    nodes: int = 1 << 10,
    occupancy: float = 0.5,
    links_per_node: int | None = None,
    rounds: int = 6,
    churn_rate: float = 0.05,
    crash_fraction: float = 0.5,
    searches: int = 100,
    recovery: str = RecoveryStrategy.BACKTRACK.value,
    seed: int = 0,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"churn"`` scenario.

    ``topology.nodes`` is the identifier-space size; ``extras.occupancy``
    of it is initially occupied (leaving room for joins).
    ``failures.levels`` carries the per-round churn rate — the natural
    ``repro sweep`` axis, e.g.::

        repro sweep churn --grid failures.levels=0.02,0.05,0.1 \\
            --grid engine=object,fastpath --set topology.nodes=2048
    """
    return ScenarioSpec(
        scenario="churn",
        topology=TopologySpec(kind="heuristic", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="churn", levels=(churn_rate,)),
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
        extras={
            "occupancy": occupancy,
            "rounds": rounds,
            "crash_fraction": crash_fraction,
            "latency_median": 1.0,
            "latency_sigma": 0.4,
        },
    )


@register_scenario(
    "churn",
    description="round-by-round join/leave/crash churn with batched repair: membership, repair traffic, and lookup quality per round (both engines, delta-driven fastpath)",
    defaults=churn_spec(),
)
def _churn(spec: ScenarioSpec) -> ScenarioOutcome:
    """One table per ``failures.levels`` entry (the churn-rate sweep axis);
    each rate runs an independently seeded network."""
    parameters = decode_round_spec(spec, rounds=6)
    rates = [float(level) for level in spec.failures.levels] or [0.05]
    tables: list[ExperimentTable] = []
    raw: list[tuple[float, list[RoundRow]]] = []
    engine_used = spec.engine
    for index, rate in enumerate(rates):
        # Always derived per level, so a rate's numbers do not change when
        # further levels are added to the sweep.
        rows, quality, engine_used = _run_rate(
            parameters, rate, derive_seed(spec.seed, "churn", index)
        )
        raw.append((rate, rows))
        table = ExperimentTable(
            title=(
                f"churn: n={parameters.nodes} space, {parameters.occupied} initial nodes, "
                f"rate {rate:.3f}/round, recovery {spec.routing.recovery}"
            ),
            columns=[
                "round", "joins", "leaves", "crashes", "live",
                "links_dropped", "links_regenerated", "ring_repairs",
                "repair_messages", "success_rate", "mean_hops", "mean_latency",
            ],
            notes="repair counters include departure-triggered and periodic repair; "
            "latency is the log-normal per-hop model over successful lookups.",
        )
        for record, lookups in zip(rows, quality):
            repair = record.repair
            table.add_row(
                record.round_index, record.joins, record.leaves, record.crashes,
                record.live_nodes, repair.dead_links_dropped, repair.links_regenerated,
                repair.ring_repairs, repair.messages,
                round(lookups.success_rate, 6), round(lookups.mean_hops, 6),
                round(lookups.mean_latency, 6),
            )
        tables.append(table)
    return ScenarioOutcome(tables=tables, raw=raw, engine_used=engine_used)


# ---------------------------------------------------------------------------
# maintenance-cost
# ---------------------------------------------------------------------------


def maintenance_cost_spec(
    nodes: int = 1 << 10,
    occupancy: float = 0.5,
    links_per_node: int | None = None,
    rounds: int = 4,
    churn_rates: tuple[float, ...] = (0.01, 0.02, 0.05, 0.1),
    crash_fraction: float = 0.5,
    searches: int = 100,
    recovery: str = RecoveryStrategy.BACKTRACK.value,
    seed: int = 0,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"maintenance-cost"`` scenario.

    ``failures.levels`` is the churn-rate sweep; each level runs its own
    independently built network (seed derived per level).
    """
    return ScenarioSpec(
        scenario="maintenance-cost",
        topology=TopologySpec(kind="heuristic", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="churn", levels=tuple(churn_rates)),
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
        extras={
            "occupancy": occupancy,
            "rounds": rounds,
            "crash_fraction": crash_fraction,
        },
    )


@register_scenario(
    "maintenance-cost",
    description="repair traffic vs churn rate: maintenance counters, messages per event, and post-churn routability at each rate level",
    defaults=maintenance_cost_spec(),
)
def _maintenance_cost(spec: ScenarioSpec) -> ScenarioOutcome:
    parameters = decode_round_spec(spec, rounds=6)
    rates = [float(level) for level in spec.failures.levels] or [0.05]
    table = ExperimentTable(
        title=(
            f"maintenance cost: n={parameters.nodes} space, "
            f"{parameters.occupied} initial nodes, {parameters.rounds} rounds per rate"
        ),
        columns=[
            "churn_rate", "events", "joins", "leaves", "crashes",
            "links_dropped", "links_regenerated", "ring_repairs", "messages",
            "messages_per_event", "final_success_rate", "final_mean_hops",
        ],
        notes="messages follow the paper's accounting: one per dead-link probe "
        "plus one search per regenerated link; the routability probe routes "
        "the workload's searches after the final repair pass.",
    )
    engine_used = spec.engine
    raw: list[tuple[float, list[RoundRow]]] = []
    for index, rate in enumerate(rates):
        rows, quality, engine_used = _run_rate(
            parameters, rate, derive_seed(spec.seed, "maintenance-cost", index)
        )
        raw.append((rate, rows))
        total = MaintenanceReport()
        joins = leaves = crashes = 0
        for record in rows:
            total = total.merge(record.repair)
            joins += record.joins
            leaves += record.leaves
            crashes += record.crashes
        events = joins + leaves + crashes
        last = quality[-1]
        table.add_row(
            rate, events, joins, leaves, crashes,
            total.dead_links_dropped, total.links_regenerated,
            total.ring_repairs, total.messages,
            round(total.messages / events, 6) if events else 0.0,
            round(last.success_rate, 6), round(last.mean_hops, 6),
        )
    return ScenarioOutcome(tables=[table], raw=raw, engine_used=engine_used)
