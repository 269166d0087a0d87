"""Ablation experiments for the design choices DESIGN.md calls out.

* **Link-replacement strategy** (Section 5): inverse-distance replacement vs
  the "replace the oldest link" alternative vs never replacing.  The paper
  reports the first two are nearly indistinguishable; never replacing should
  visibly distort the link-length distribution for late arrivals.
* **Backtrack depth**: the paper fixes the history to 5 nodes; the ablation
  sweeps the depth and measures the failed-search fraction.
* **Power-law exponent**: exponent 1 is optimal on the line (Kleinberg);
  exponents far from 1 should degrade routing, which is exactly what the
  paper's lower bound predicts for poorly chosen distributions.
* **Byzantine routing** (Section 7 future work): failed-search fraction vs
  fraction of Byzantine nodes, for plain greedy routing and for the redundant
  multi-path router.
"""

from __future__ import annotations

import numpy as np

from repro.core.builder import build_ideal_network
from repro.core.byzantine import ByzantineAwareRouter, RedundantRouter
from repro.core.failures import ByzantineBehavior, ByzantineModel, NodeFailureModel
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.experiments.figure5 import REPLACEMENT_POLICIES, _measure_figure5
from repro.experiments.runner import ExperimentTable
from repro.scenarios.registry import register_scenario
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

#: Nothing to import: the four scenarios register themselves on import.
__all__: list[str] = []


@register_scenario(
    "ablation-replacement",
    description="link-replacement policy ablation: inverse-distance vs oldest-link vs never-replace",
    defaults=ScenarioSpec(
        scenario="ablation-replacement",
        topology=TopologySpec(kind="heuristic", nodes=1 << 10),
        failures=FailureSpec(kind="none"),
        workload=WorkloadSpec(searches=1, networks=3),
    ),
)
def _ablation_replacement(spec: ScenarioSpec) -> ScenarioOutcome:
    """Compare link-replacement policies by distribution error (Section 5 ablation).

    Construction-only, like Figure 5: the engine is ignored and reported as
    ``"object"``.
    """
    table = ExperimentTable(
        title="Ablation: link-replacement policy vs ideal 1/d distribution",
        columns=["policy", "max_absolute_error", "total_variation"],
        notes="The paper reports inverse-distance and oldest-link are nearly indistinguishable.",
    )
    for name, policy in REPLACEMENT_POLICIES.items():
        result = _measure_figure5(
            spec.topology.nodes,
            spec.topology.links_per_node,
            spec.workload.networks,
            policy(),
            spec.seed,
        )
        table.add_row(name, result.max_absolute_error, result.total_variation)
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")


@register_scenario(
    "ablation-backtrack",
    description="backtrack-depth ablation: failed-search fraction vs history depth at a fixed failure level",
    defaults=ScenarioSpec(
        scenario="ablation-backtrack",
        topology=TopologySpec(kind="ideal", nodes=1 << 12),
        failures=FailureSpec(kind="nodes", levels=(0.5,)),
        routing=RoutingSpec(recovery=RecoveryStrategy.BACKTRACK.value),
        workload=WorkloadSpec(searches=300),
        extras={"depths": (1, 2, 5, 10, 20)},
    ),
)
def _ablation_backtrack(spec: ScenarioSpec) -> ScenarioOutcome:
    """Sweep the backtracking history depth (the paper fixes it at 5).

    Object-engine scenario: the depth-limited backtracking router is scalar.
    """
    if len(spec.failures.levels) != 1:
        raise SpecError(
            "failures.levels must hold exactly one level for 'ablation-backtrack' "
            f"(the sweep axis is extras.depths), got {spec.failures.levels!r}"
        )
    failure_level = spec.failures.levels[0]
    nodes = spec.topology.nodes
    searches = spec.workload.searches
    seed = spec.seed
    build = build_ideal_network(nodes, seed=seed)
    graph = build.graph
    model = NodeFailureModel(failure_level, seed=seed + 1)
    model.apply(graph)
    live = graph.labels(only_alive=True)
    pairs = LookupWorkload(seed=seed + 2).pairs(live, searches)

    table = ExperimentTable(
        title=f"Ablation: backtrack depth at {failure_level:.0%} failed nodes (n={nodes})",
        columns=["backtrack_depth", "failed_fraction", "mean_hops_successful"],
    )
    for depth in spec.extra("depths"):
        router = GreedyRouter(
            graph=graph,
            recovery=RecoveryStrategy.BACKTRACK,
            backtrack_depth=depth,
            seed=seed + 3,
        )
        failures = 0
        hops: list[int] = []
        for source, target in pairs:
            route = router.route(source, target)
            if route.success:
                hops.append(route.hops)
            else:
                failures += 1
        table.add_row(
            depth, failures / len(pairs), float(np.mean(hops)) if hops else 0.0
        )
    model.repair(graph)
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")


@register_scenario(
    "ablation-exponent",
    description="link-distribution exponent ablation: routing performance vs power-law exponent",
    defaults=ScenarioSpec(
        scenario="ablation-exponent",
        topology=TopologySpec(kind="ideal", nodes=1 << 12),
        failures=FailureSpec(kind="none"),
        workload=WorkloadSpec(searches=300),
        extras={"exponents": (0.0, 0.5, 1.0, 1.5, 2.0)},
    ),
)
def _ablation_exponent(spec: ScenarioSpec) -> ScenarioOutcome:
    """Sweep the power-law exponent; exponent 1 should minimise hops on the line.

    Object-engine scenario.
    """
    nodes = spec.topology.nodes
    searches = spec.workload.searches
    seed = spec.seed
    table = ExperimentTable(
        title=f"Ablation: link-distribution exponent (n={nodes}, l=lg n)",
        columns=["exponent", "mean_hops", "failed_fraction"],
        notes="Exponent 1 (harmonic) is the paper's choice and Kleinberg's 1-D optimum.",
    )
    for index, exponent in enumerate(spec.extra("exponents")):
        build = build_ideal_network(nodes, seed=seed + index, exponent=exponent)
        live = build.graph.labels(only_alive=True)
        pairs = LookupWorkload(seed=seed + 100 + index).pairs(live, searches)
        router = GreedyRouter(graph=build.graph, seed=seed + 200 + index)
        failures = 0
        hops: list[int] = []
        for source, target in pairs:
            route = router.route(source, target)
            if route.success:
                hops.append(route.hops)
            else:
                failures += 1
        table.add_row(
            exponent, float(np.mean(hops)) if hops else 0.0, failures / len(pairs)
        )
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")


@register_scenario(
    "byzantine",
    description="Byzantine-node extension: plain vs redundant multi-path routing vs compromised fraction",
    defaults=ScenarioSpec(
        scenario="byzantine",
        topology=TopologySpec(kind="ideal", nodes=1 << 11),
        failures=FailureSpec(
            kind="byzantine",
            levels=(0.0, 0.05, 0.1, 0.2, 0.3),
            behavior=ByzantineBehavior.DROP,
        ),
        workload=WorkloadSpec(searches=200),
        extras={"redundancy": 3},
    ),
)
def _byzantine(spec: ScenarioSpec) -> ScenarioOutcome:
    """Failed searches vs fraction of Byzantine nodes, plain vs redundant routing.

    This is the Section-7 future-work extension: plain greedy routing fails
    whenever a compromised node sits on the greedy path, while redundant
    multi-path routing tolerates a substantially larger compromised fraction.
    Byzantine behaviour is object-router only, so this is an object-engine
    scenario.
    """
    nodes = spec.topology.nodes
    behavior = spec.failures.behavior
    redundancy = int(spec.extra("redundancy"))
    searches = spec.workload.searches
    seed = spec.seed
    build = build_ideal_network(nodes, seed=seed)
    graph = build.graph
    table = ExperimentTable(
        title=f"Extension: Byzantine nodes ({behavior}) — plain vs redundant routing (n={nodes})",
        columns=[
            "byzantine_fraction",
            "plain_failed_fraction",
            "redundant_failed_fraction",
            "plain_mean_hops",
            "redundant_mean_hops",
        ],
    )
    for index, fraction in enumerate(spec.failures.levels):
        adversary = ByzantineModel(fraction, behavior=behavior, seed=seed + 10 + index)
        adversary.apply(graph)
        live = [
            label for label in graph.labels(only_alive=True)
            if not adversary.is_compromised(label)
        ]
        pairs = LookupWorkload(seed=seed + 20 + index).pairs(live, searches)

        plain = ByzantineAwareRouter(graph=graph, adversary=adversary, seed=seed + 30 + index)
        redundant = RedundantRouter(
            graph=graph, adversary=adversary, redundancy=redundancy, seed=seed + 40 + index
        )
        plain_failures, plain_hops = 0, []
        redundant_failures, redundant_hops = 0, []
        for source, target in pairs:
            plain_result = plain.route(source, target)
            if plain_result.success:
                plain_hops.append(plain_result.hops)
            else:
                plain_failures += 1
            redundant_result = redundant.route(source, target)
            if redundant_result.success:
                redundant_hops.append(redundant_result.hops)
            else:
                redundant_failures += 1
        table.add_row(
            fraction,
            plain_failures / len(pairs),
            redundant_failures / len(pairs),
            float(np.mean(plain_hops)) if plain_hops else 0.0,
            float(np.mean(redundant_hops)) if redundant_hops else 0.0,
        )
        adversary.repair(graph)
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")
