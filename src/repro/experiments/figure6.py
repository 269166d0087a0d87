"""Figure 6: routing under node failures with three recovery strategies.

The paper simulates 2^17 nodes with 17 long links each, fails a fraction ``p``
of the nodes (``p`` from 0 to 0.8), and repeatedly routes between random live
source/destination pairs.  Figure 6(a) plots the fraction of failed searches
and Figure 6(b) the average delivery time of successful searches, for the
three recovery strategies: terminate, random re-route, and backtracking.

Expected qualitative shape (what the ``"figure6"`` scenario should show):

* the terminate strategy loses roughly (slightly fewer than) ``p`` of its
  searches;
* random re-route is noticeably better at moderate ``p``;
* backtracking is dramatically better (the paper reports under 30% failed
  searches even with 80% of the nodes dead at full scale) at the price of a
  longer average delivery time;
* delivery time grows only moderately with ``p`` for all strategies.

The registered defaults are scaled down (2^12 nodes, 200 searches per point);
override ``topology.nodes=131072``, ``workload.searches=100000`` for a
paper-scale run.  Every level opens one
:class:`~repro.scenarios.rounds.EngineSession` on the network's parameters, so
with ``engine="fastpath"`` the whole experiment is array-native — direct-to-CSR
build, failures as bulk mask operations, **all three** strategies on the
batched engine, no object graph ever materialised — and the numbers are
identical to ``engine="object"`` at the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.failures import failure_sweep_levels
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable, measure_mean_hops
from repro.scenarios.registry import register_scenario
from repro.scenarios.rounds import EngineSession, IdealNetwork
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import (
    FailureSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.simulation.workload import LookupWorkload
from repro.util.rng import derive_seed

__all__ = ["Figure6Result", "DEFAULT_STRATEGIES"]

DEFAULT_STRATEGIES = (
    RecoveryStrategy.TERMINATE,
    RecoveryStrategy.RANDOM_REROUTE,
    RecoveryStrategy.BACKTRACK,
)


@dataclass
class Figure6Result:
    """Numeric reproduction of Figure 6(a) and 6(b).

    ``failed_fraction[strategy]`` and ``mean_hops[strategy]`` are lists
    aligned with ``failure_levels``.
    """

    failure_levels: list[float]
    failed_fraction: dict[str, list[float]] = field(default_factory=dict)
    mean_hops: dict[str, list[float]] = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)

    def to_tables(self) -> tuple[ExperimentTable, ExperimentTable]:
        """Return (Figure 6a, Figure 6b) as printable tables."""
        strategies = list(self.failed_fraction)
        table_a = ExperimentTable(
            title="Figure 6(a): fraction of failed searches vs fraction of failed nodes",
            columns=["failed_nodes"] + strategies,
        )
        table_b = ExperimentTable(
            title="Figure 6(b): mean delivery time (hops) of successful searches",
            columns=["failed_nodes"] + strategies,
        )
        for index, level in enumerate(self.failure_levels):
            table_a.add_row(level, *[self.failed_fraction[s][index] for s in strategies])
            table_b.add_row(level, *[self.mean_hops[s][index] for s in strategies])
        return table_a, table_b


@register_scenario(
    "figure6",
    description="failed searches and delivery time vs failed-node fraction, three recovery strategies (Figure 6a/6b)",
    defaults=ScenarioSpec(
        scenario="figure6",
        topology=TopologySpec(kind="ideal", nodes=1 << 12),
        failures=FailureSpec(
            kind="nodes", levels=tuple(failure_sweep_levels(maximum=0.8, step=0.1))
        ),
        workload=WorkloadSpec(searches=200),
        extras={"strategies": tuple(strategy.value for strategy in DEFAULT_STRATEGIES)},
    ),
)
def _figure6(spec: ScenarioSpec) -> ScenarioOutcome:
    """Reproduce Figure 6(a)/(b).

    ``topology.links_per_node=None`` means ``ceil(lg nodes)``;
    ``extras.strategies`` names the recovery strategies to compare.  The
    network is built once per failure level (as in the paper, "in each
    simulation, the network is set up afresh"), the failure model removes the
    requested fraction of nodes, and every strategy routes the same
    source/destination pairs so the comparison is paired.

    Per-level seeds are derived with :func:`repro.util.rng.derive_seed` (the
    same helper the sweep executor uses), namespaced by purpose — build,
    failures, workload, routing — so adding a consumer never perturbs the
    others.

    One session per level builds the network, fails the nodes (the same
    victims on either engine at the same seed) and is re-armed per strategy,
    so every number under ``engine="fastpath"`` matches ``engine="object"``.
    """
    nodes = spec.topology.nodes
    links_per_node = spec.topology.links_per_node
    if links_per_node is None:
        links_per_node = max(1, int(np.ceil(np.log2(nodes))))
    failure_levels = spec.failures.levels
    searches_per_point = spec.workload.searches
    strategies = [RecoveryStrategy(name) for name in spec.extra("strategies")]
    seed = spec.seed
    engine = spec.engine

    result = Figure6Result(
        failure_levels=list(failure_levels),
        failed_fraction={s.value: [] for s in strategies},
        mean_hops={s.value: [] for s in strategies},
        parameters={
            "nodes": nodes,
            "links_per_node": links_per_node,
            "searches_per_point": searches_per_point,
            "seed": seed,
            "engine": engine,
        },
    )
    # Per-strategy, per-level record of the engine that actually routed.
    engines_used: dict[str, list[str]] = {s.value: [] for s in strategies}

    for level_index, level in enumerate(failure_levels):
        build_seed = derive_seed(seed, "figure6", "build", level_index)
        failure_seed = derive_seed(seed, "figure6", "failures", level_index)
        workload_seed = derive_seed(seed, "figure6", "workload", level_index)
        route_seed = derive_seed(seed, "figure6", "route", level_index)

        # One topology serves every strategy at this failure level; each
        # strategy starts from the same route seed, like a fresh router.
        with EngineSession(
            IdealNetwork(nodes, links_per_node, build_seed),
            engine,
            spec.routing.recovery_strategy(),
            route_seed,
        ) as session:
            session.fail_nodes(level, failure_seed)
            pairs = LookupWorkload(seed=workload_seed).pairs(
                session.live_labels(), searches_per_point
            )
            for strategy in strategies:
                session.rearm(strategy, route_seed)
                mean_hops, failed_fraction = measure_mean_hops(session, pairs)
                engines_used[strategy.value].append(session.engine_used)
                result.failed_fraction[strategy.value].append(failed_fraction)
                result.mean_hops[strategy.value].append(mean_hops)

    # ``engine_used`` keeps the strategy -> engine summary shape; a strategy
    # routed by different engines at different levels shows up as e.g.
    # "fastpath+object".  The raw per-level record rides along for sweeps
    # that need to audit exactly which cells downgraded.
    result.parameters["engines_used_per_level"] = engines_used
    result.parameters["engine_used"] = {
        strategy: "+".join(sorted(set(levels_used))) if levels_used else engine
        for strategy, levels_used in engines_used.items()
    }
    # Report the engines that *actually* routed rather than a prediction, so
    # a partial fallback shows up as a mixed "fastpath+object" run.
    recorded = {used for levels_used in engines_used.values() for used in levels_used}
    return ScenarioOutcome(
        tables=list(result.to_tables()),
        raw=result,
        engine_used="+".join(sorted(recorded)) if recorded else engine,
    )
