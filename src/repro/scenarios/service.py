"""The ``service`` scenario: sustained mixed traffic as a first-class run.

The ROADMAP's north star is an overlay *serving* heavy lookup traffic while
membership churns underneath it — not a one-shot figure.  The churn scenario
measures round-by-round repair quality; this scenario measures **steady
state**: a deterministic interleaved schedule of lookup batches, churn
bursts, and periodic batched repair, sustained over a configurable round
budget, reporting throughput-facing numbers (success rate, hop and modelled
latency p50/p99 per round and in aggregate).

Determinism contract
--------------------
Every table cell is a pure function of the spec: churn events come from
:class:`~repro.simulation.workload.ChurnWorkload` under a derived seed, the
interleave is computed by the pure
:func:`~repro.scenarios.rounds.build_service_schedule`, lookups by
:class:`~repro.simulation.workload.LookupWorkload`, and per-lookup latency by
the log-normal per-hop model consumed in query order.  The shared round
driver (:mod:`repro.scenarios.rounds`) runs the schedule and keeps the router
current on either engine, so both produce **identical tables** (the tier-1
golden digests assert it).

Wall-clock numbers — steady-state QPS, per-batch milliseconds — are real
measurements and therefore live in telemetry only (``service.qps`` gauge,
``service.lookup_ms`` histogram), never in the deterministic tables; the
delta-refresh cost rides the existing ``refresh.*`` instrumentation plus a
``service.refresh_ops`` counter.  p50/p99 quantiles reuse the telemetry
:class:`~repro.telemetry.core.Histogram` (fixed buckets, deterministic
interpolation) so the tables stay engine- and process-independent.

Registered scenario
-------------------
``service``
    One table pair per ``failures.levels`` entry (the churn-rate sweep
    axis): per-round service quality plus a steady-state summary.
    Grid-ready axes: ``failures.levels``, ``topology.nodes``, ``engine``,
    ``routing.recovery``, ``workload.searches``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.construction import build_heuristic_network
from repro.core.maintenance import MaintenanceReport
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable
from repro.scenarios.registry import register_scenario
from repro.scenarios.rounds import (
    RoundParameters,
    RoundRow,
    build_service_schedule,
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
from repro.telemetry.core import (
    HOP_BUCKETS,
    MS_BUCKETS,
    Histogram,
    current as telemetry_current,
)
from repro.util.rng import derive_seed

__all__ = ["build_service_schedule", "service_spec"]


@dataclass
class _Quality:
    """Lookup quality over one round, or over the whole run."""

    lookups: int = 0
    successes: int = 0
    hop_hist: Histogram = field(
        default_factory=lambda: Histogram("service.hops", HOP_BUCKETS)
    )
    latency_hist: Histogram = field(
        default_factory=lambda: Histogram("service.latency", MS_BUCKETS)
    )

    @property
    def success_rate(self) -> float:
        return self.successes / self.lookups if self.lookups else 0.0


def _run_rate(
    parameters: RoundParameters, churn_rate: float, seed: int
) -> tuple[list[RoundRow], list[_Quality], _Quality, str]:
    """One independently built network served under one churn rate.

    Returns (rows, per-round quality, whole-run quality, engine used).
    """
    tel = telemetry_current()
    per_round = [_Quality() for _ in range(parameters.rounds)]
    steady = _Quality()
    route_seconds = 0.0

    def on_batch(session, round_index, burst_index, pairs) -> None:
        nonlocal route_seconds
        if tel is not None:
            if session.mirror is not None:
                tel.count("service.refresh_ops", session.pending_ops)
            # repro: allow[RPR001] — timing only reachable with telemetry on
            started = time.perf_counter()
        success, hops = session.route(pairs)
        if tel is not None:
            # repro: allow[RPR001] — timing only reachable with telemetry on
            elapsed = time.perf_counter() - started
            route_seconds += elapsed
            tel.observe("service.lookup_ms", elapsed * 1e3, buckets=MS_BUCKETS)
            tel.count("service.lookups", len(pairs))
        delivered = hops[success]
        latencies = query_latencies(
            delivered,
            parameters,
            derive_seed(seed, "service-latency", round_index, burst_index),
        )
        for quality in (per_round[round_index], steady):
            quality.lookups += len(pairs)
            quality.successes += int(success.sum())
            quality.hop_hist.record_many(delivered)
            quality.latency_hist.record_many(latencies)

    rows, engine_used = run_rounds(
        # Looked up in this module's globals on every run, so a caller that
        # wraps repro.scenarios.service.build_heuristic_network (the
        # benchmark's traced run does) sees the build.
        build_heuristic_network,
        parameters,
        churn_rate=churn_rate,
        seed=seed,
        label="service",
        on_batch=on_batch,
    )
    if tel is not None:
        tel.count("service.rounds", parameters.rounds)
        if route_seconds > 0.0:
            tel.gauge("service.qps", steady.lookups / route_seconds)
    return rows, per_round, steady, engine_used


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------


def service_spec(
    nodes: int = 1 << 10,
    occupancy: float = 0.5,
    links_per_node: int | None = None,
    rounds: int = 4,
    bursts_per_round: int = 4,
    repair_every: int = 2,
    churn_rate: float = 0.02,
    crash_fraction: float = 0.5,
    searches: int = 40,
    recovery: str = RecoveryStrategy.BACKTRACK.value,
    seed: int = 0,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"service"`` scenario.

    ``topology.nodes`` is the identifier-space size; ``extras.occupancy`` of
    it is initially occupied.  ``workload.searches`` is the lookup-batch
    size *per burst* (``rounds * bursts_per_round`` batches total) and
    ``failures.levels`` carries the churn rate — the natural sweep axes,
    e.g.::

        repro sweep service --grid failures.levels=0.01,0.05 \\
            --grid engine=object,fastpath --set topology.nodes=2048
    """
    return ScenarioSpec(
        scenario="service",
        topology=TopologySpec(kind="heuristic", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="churn", levels=(churn_rate,)),
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
        extras={
            "occupancy": occupancy,
            "rounds": rounds,
            "bursts_per_round": bursts_per_round,
            "repair_every": repair_every,
            "crash_fraction": crash_fraction,
            "latency_median": 1.0,
            "latency_sigma": 0.4,
        },
    )


def _quantiles(histogram: Histogram) -> tuple[float, float]:
    return round(histogram.quantile(0.5), 6), round(histogram.quantile(0.99), 6)


@register_scenario(
    "service",
    description="sustained mixed traffic: interleaved lookup batches, churn bursts, and periodic batched repair over a round budget — per-round and steady-state success/hop/latency quantiles (both engines, delta-driven fastpath; QPS in telemetry)",
    defaults=service_spec(),
)
def _service(spec: ScenarioSpec) -> ScenarioOutcome:
    """One per-round table plus a steady-state summary per churn-rate level."""
    parameters = decode_round_spec(spec, rounds=4, bursts_per_round=4, repair_every=2)
    rates = [float(level) for level in spec.failures.levels] or [0.02]
    tables: list[ExperimentTable] = []
    raw: list[tuple[float, list[RoundRow]]] = []
    engine_used = spec.engine
    for index, rate in enumerate(rates):
        # Derived per level, so a level's numbers never change when the sweep
        # grows more levels.
        rows, per_round, steady, engine_used = _run_rate(
            parameters, rate, derive_seed(spec.seed, "service", index)
        )
        raw.append((rate, rows))
        table = ExperimentTable(
            title=(
                f"service: n={parameters.nodes} space, "
                f"{parameters.occupied} initial nodes, rate {rate:.3f}/round, "
                f"{parameters.bursts_per_round} bursts/round, "
                f"recovery {spec.routing.recovery}"
            ),
            columns=[
                "round", "events", "joins", "leaves", "crashes", "live",
                "lookups", "success_rate", "hop_p50", "hop_p99",
                "latency_p50", "latency_p99", "repair_messages",
            ],
            notes="quantiles interpolate the fixed-bucket telemetry histograms "
            "(deterministic); latency is the log-normal per-hop model over "
            "successful lookups; wall-clock QPS and per-batch milliseconds "
            "are telemetry-only (service.qps / service.lookup_ms).",
        )
        for record, quality in zip(rows, per_round):
            hop_p50, hop_p99 = _quantiles(quality.hop_hist)
            lat_p50, lat_p99 = _quantiles(quality.latency_hist)
            table.add_row(
                record.round_index, record.events, record.joins, record.leaves,
                record.crashes, record.live_nodes, quality.lookups,
                round(quality.success_rate, 6), hop_p50, hop_p99,
                lat_p50, lat_p99, record.repair.messages,
            )
        tables.append(table)

        total_repair = MaintenanceReport()
        for record in rows:
            total_repair = total_repair.merge(record.repair)
        hop_p50, hop_p99 = _quantiles(steady.hop_hist)
        lat_p50, lat_p99 = _quantiles(steady.latency_hist)
        summary = ExperimentTable(
            title=f"service steady state: rate {rate:.3f}/round",
            columns=[
                "rounds", "lookups", "events", "success_rate",
                "hop_p50", "hop_p99", "latency_p50", "latency_p99",
                "repair_messages",
            ],
            notes="aggregates over every lookup batch of the run.",
        )
        summary.add_row(
            parameters.rounds, steady.lookups,
            sum(record.events for record in rows),
            round(steady.success_rate, 6),
            hop_p50, hop_p99, lat_p50, lat_p99, total_repair.messages,
        )
        tables.append(summary)
    return ScenarioOutcome(tables=tables, raw=raw, engine_used=engine_used)
