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

from repro.core.builder import build_ideal_network
from repro.core.construction import build_heuristic_network
from repro.core.failures import NodeFailureModel, failure_sweep_levels
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable, route_pairs_with_engine
from repro.fastpath import cached_build_snapshot
from repro.scenarios.registry import register_scenario
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
    purpose and sweep position.  With ``engine="fastpath"`` the ideal
    networks are built straight into CSR snapshots
    (:func:`repro.fastpath.build_snapshot`) and every level routes on a
    derived alive mask; the constructed networks — inherently built node by
    node through the Section-5 heuristic — are compiled **once** per
    iteration and reuse their snapshot across all failure levels.
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
    from repro.fastpath import compile_snapshot, sample_node_failures, select_engine

    resolved = select_engine(engine, recovery)
    result.parameters["engine_used"] = resolved
    fastpath = resolved == "fastpath"

    # Build the networks once per iteration and reuse them across failure
    # levels (failures are repaired after each level), which matches the
    # paper's "10 iterations of constructing a network" methodology.  Each
    # entry is (graph, base snapshot): ideal fastpath networks skip the
    # object layer entirely (graph is None); constructed networks always
    # carry a graph and, under fastpath, a one-time compiled snapshot.
    ideal_networks: list[tuple] = []
    constructed_networks: list[tuple] = []
    for iteration in range(iterations):
        ideal_seed = derive_seed(seed, "figure7", "ideal", iteration)
        constructed_seed = derive_seed(seed, "figure7", "constructed", iteration)
        if fastpath:
            ideal_networks.append(
                (
                    None,
                    cached_build_snapshot(
                        nodes, links_per_node=links_per_node, seed=ideal_seed
                    ),
                )
            )
        else:
            ideal_networks.append(
                (
                    build_ideal_network(
                        nodes, links_per_node=links_per_node, seed=ideal_seed
                    ).graph,
                    None,
                )
            )
        constructed = build_heuristic_network(
            n=nodes, links_per_node=links_per_node, seed=constructed_seed
        ).graph
        constructed_networks.append(
            (constructed, compile_snapshot(constructed) if fastpath else None)
        )

    for level_index, level in enumerate(failure_levels):
        ideal_fractions = []
        constructed_fractions = []
        workload_seed = derive_seed(seed, "figure7", "workload", level_index)
        route_seed = derive_seed(seed, "figure7", "route", level_index)
        for iteration in range(iterations):
            failure_seed = derive_seed(seed, "figure7", "failures", iteration, level_index)
            for (graph, base), bucket in (
                (ideal_networks[iteration], ideal_fractions),
                (constructed_networks[iteration], constructed_fractions),
            ):
                snapshot = None
                if graph is None:
                    # Direct-built ideal network: failures are a derived mask
                    # (same victims as NodeFailureModel at the same seed).
                    failed = sample_node_failures(base, level, seed=failure_seed)
                    snapshot = base.with_alive(base.alive & ~failed)
                    live = snapshot.labels[snapshot.alive].tolist()
                else:
                    failure_model = NodeFailureModel(level, seed=failure_seed)
                    failure_model.apply(graph)
                    live = graph.labels(only_alive=True)
                    if base is not None:
                        # Reuse the one-time compiled topology; only the
                        # liveness mask changes per level.
                        alive = base.alive.copy()
                        if failure_model.failed_labels:
                            alive[base.indices_of(failure_model.failed_labels)] = False
                        snapshot = base.with_alive(alive)
                workload = LookupWorkload(seed=workload_seed)
                pairs = workload.pairs(live, searches_per_point)
                outcome = route_pairs_with_engine(
                    graph,
                    pairs,
                    engine=engine,
                    recovery=recovery,
                    seed=route_seed,
                    snapshot=snapshot,
                )
                bucket.append(outcome.failures / len(pairs))
                if graph is not None:
                    failure_model.repair(graph)
        result.ideal_failed_fraction.append(float(np.mean(ideal_fractions)))
        result.constructed_failed_fraction.append(float(np.mean(constructed_fractions)))

    return ScenarioOutcome(tables=[result.to_table()], raw=result, engine_used=resolved)
