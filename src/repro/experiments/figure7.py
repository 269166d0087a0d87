"""Figure 7: heuristically constructed network vs ideal network under failures.

The paper builds a 16384-node network ten times, both "ideally" (every node
samples its long links straight from the inverse power-law distribution) and
with the Section-5 heuristic (nodes arrive one at a time and solicit link
redirects), fails a fraction of the nodes, and delivers 1000 messages between
random live pairs.  Figure 7 plots the fraction of failed searches for both
networks: the constructed network is somewhat worse but comparable.

The registered defaults are scaled down (2^11 nodes, 2 iterations, 200
messages); override ``topology.nodes=16384``, ``workload.iterations=10``,
``workload.searches=1000`` for paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.construction import build_heuristic_network
from repro.core.failures import failure_sweep_levels
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable, measure_mean_hops
from repro.scenarios.registry import register_scenario
from repro.scenarios.rounds import EngineSession, IdealNetwork
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import (
    FailureSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.simulation.workload import LookupWorkload
from repro.util.rng import derive_seed

__all__ = ["Figure7Result"]


@dataclass
class Figure7Result:
    """Numeric reproduction of Figure 7."""

    failure_levels: list[float]
    ideal_failed_fraction: list[float] = field(default_factory=list)
    constructed_failed_fraction: list[float] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)

    def to_table(self) -> ExperimentTable:
        """Return the figure as a printable table."""
        table = ExperimentTable(
            title="Figure 7: fraction of failed searches, constructed vs ideal network",
            columns=["failed_nodes", "constructed", "ideal"],
        )
        for index, level in enumerate(self.failure_levels):
            table.add_row(
                level,
                self.constructed_failed_fraction[index],
                self.ideal_failed_fraction[index],
            )
        return table


@register_scenario(
    "figure7",
    description="failed searches on the heuristically constructed vs the ideal network under node failures (Figure 7)",
    defaults=ScenarioSpec(
        scenario="figure7",
        topology=TopologySpec(kind="ideal", nodes=1 << 11),
        failures=FailureSpec(
            kind="nodes", levels=tuple(failure_sweep_levels(maximum=0.9, step=0.1))
        ),
        routing=RoutingSpec(recovery=RecoveryStrategy.TERMINATE.value),
        workload=WorkloadSpec(searches=200, iterations=2),
    ),
)
def _figure7(spec: ScenarioSpec) -> ScenarioOutcome:
    """Reproduce Figure 7 (``topology.links_per_node=None`` means ``ceil(lg nodes)``).

    For each failure level and iteration, an ideal and a heuristically
    constructed network of the same size are built, the same fraction of nodes
    fails in each, and the same number of random searches is routed; the
    failed-search fractions are averaged over iterations.

    Seeds are derived with :func:`repro.util.rng.derive_seed`, namespaced by
    purpose and sweep position.  Each network is built once per iteration and
    serves every failure level through one
    :class:`~repro.scenarios.rounds.EngineSession` (failures are restored
    after each level), which matches the paper's "10 iterations of
    constructing a network" methodology: with ``engine="fastpath"`` the ideal
    networks never exist as object graphs and the constructed ones —
    inherently built node by node through the Section-5 heuristic — are
    mirrored once and follow the failures as liveness deltas.
    """
    nodes = spec.topology.nodes
    links_per_node = spec.topology.links_per_node
    if links_per_node is None:
        links_per_node = max(1, int(np.ceil(np.log2(nodes))))
    failure_levels = spec.failures.levels
    searches_per_point = spec.workload.searches
    iterations = spec.workload.iterations
    recovery = spec.routing.recovery_strategy()
    seed = spec.seed
    engine = spec.engine

    result = Figure7Result(
        failure_levels=list(failure_levels),
        parameters={
            "nodes": nodes,
            "links_per_node": links_per_node,
            "searches_per_point": searches_per_point,
            "iterations": iterations,
            "recovery": recovery.value,
            "seed": seed,
            "engine": engine,
        },
    )
    # [level][iteration] failed-search fractions, per network kind.
    ideal_fractions: list[list[float]] = [[] for _ in failure_levels]
    constructed_fractions: list[list[float]] = [[] for _ in failure_levels]
    engines_used: set[str] = set()
    for iteration in range(iterations):
        ideal = IdealNetwork(
            nodes, links_per_node, derive_seed(seed, "figure7", "ideal", iteration)
        )
        constructed = build_heuristic_network(
            n=nodes,
            links_per_node=links_per_node,
            seed=derive_seed(seed, "figure7", "constructed", iteration),
        )
        for network, fractions in (
            (ideal, ideal_fractions),
            (constructed, constructed_fractions),
        ):
            with EngineSession(network, engine, recovery, seed) as session:
                engines_used.add(session.engine_used)
                for level_index, level in enumerate(failure_levels):
                    session.fail_nodes(
                        level,
                        derive_seed(seed, "figure7", "failures", iteration, level_index),
                    )
                    session.rearm(
                        recovery, derive_seed(seed, "figure7", "route", level_index)
                    )
                    workload = LookupWorkload(
                        seed=derive_seed(seed, "figure7", "workload", level_index)
                    )
                    pairs = workload.pairs(session.live_labels(), searches_per_point)
                    fractions[level_index].append(measure_mean_hops(session, pairs)[1])
                    session.restore()

    result.ideal_failed_fraction = [float(np.mean(f)) for f in ideal_fractions]
    result.constructed_failed_fraction = [
        float(np.mean(f)) for f in constructed_fractions
    ]
    result.parameters["engine_used"] = "+".join(sorted(engines_used)) or engine
    return ScenarioOutcome(
        tables=[result.to_table()],
        raw=result,
        engine_used=result.parameters["engine_used"],
    )
