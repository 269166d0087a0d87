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

The depth and exponent ablations route through an ``EngineSession`` on either
engine; ``byzantine`` stays on its object-only routers (its docstring says why).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.builder import build_ideal_network
from repro.core.byzantine import ByzantineAwareRouter, RedundantRouter
from repro.core.failures import ByzantineBehavior, ByzantineModel
from repro.core.routing import RecoveryStrategy
from repro.experiments.figure5 import REPLACEMENT_POLICIES, _measure_figure5
from repro.experiments.runner import ExperimentTable, measure_mean_hops
from repro.scenarios.registry import register_scenario
from repro.scenarios.rounds import EngineSession, IdealNetwork
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
    description="backtrack-depth ablation: failed-search fraction vs history depth at a fixed failure level (both engines)",
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

    One session fails the nodes once and is re-armed per depth, so every
    depth routes the same pairs on the same survivors, on either engine.
    """
    if len(spec.failures.levels) != 1:
        raise SpecError(
            "failures.levels must hold exactly one level for 'ablation-backtrack' "
            f"(the sweep axis is extras.depths), got {spec.failures.levels!r}"
        )
    backtrack = RecoveryStrategy.BACKTRACK
    if spec.routing.recovery_strategy() is not backtrack:
        raise SpecError(
            "routing.recovery must stay 'backtrack' for 'ablation-backtrack' "
            f"(it sweeps the backtracking history), got {spec.routing.recovery!r}"
        )
    failure_level = spec.failures.levels[0]
    nodes = spec.topology.nodes
    seed = spec.seed
    table = ExperimentTable(
        title=f"Ablation: backtrack depth at {failure_level:.0%} failed nodes (n={nodes})",
        columns=["backtrack_depth", "failed_fraction", "mean_hops_successful"],
    )
    with EngineSession(
        IdealNetwork(nodes, None, seed), spec.engine, backtrack, seed + 3
    ) as session:
        session.fail_nodes(failure_level, seed + 1)
        pairs = LookupWorkload(seed=seed + 2).pairs(
            session.live_labels(), spec.workload.searches
        )
        for depth in spec.extra("depths"):
            session.rearm(backtrack, seed + 3, backtrack_depth=depth)
            mean_hops, failed_fraction = measure_mean_hops(session, pairs)
            table.add_row(depth, failed_fraction, mean_hops)
    return ScenarioOutcome(tables=[table], raw=table)


@register_scenario(
    "ablation-exponent",
    description="link-distribution exponent ablation: routing performance vs power-law exponent (both engines)",
    defaults=ScenarioSpec(
        scenario="ablation-exponent",
        topology=TopologySpec(kind="ideal", nodes=1 << 12),
        failures=FailureSpec(kind="none"),
        routing=RoutingSpec(recovery=RecoveryStrategy.TERMINATE.value),
        workload=WorkloadSpec(searches=300),
        extras={"exponents": (0.0, 0.5, 1.0, 1.5, 2.0)},
    ),
)
def _ablation_exponent(spec: ScenarioSpec) -> ScenarioOutcome:
    """Sweep the power-law exponent; exponent 1 should minimise hops on the line.

    One session per exponent, opened on the network built with it.
    """
    exponents = spec.extra("exponents")
    if not all(math.isfinite(exponent) for exponent in exponents):
        raise SpecError(
            "extras.exponents must hold finite power-law exponents for "
            f"'ablation-exponent', got {exponents!r}"
        )
    nodes = spec.topology.nodes
    seed = spec.seed
    table = ExperimentTable(
        title=f"Ablation: link-distribution exponent (n={nodes}, l=lg n)",
        columns=["exponent", "mean_hops", "failed_fraction"],
        notes="Exponent 1 (harmonic) is the paper's choice and Kleinberg's 1-D optimum.",
    )
    for index, exponent in enumerate(exponents):
        with EngineSession(
            build_ideal_network(nodes, seed=seed + index, exponent=exponent),
            spec.engine,
            spec.routing.recovery_strategy(),
            seed + 200 + index,
        ) as session:
            pairs = LookupWorkload(seed=seed + 100 + index).pairs(
                session.live_labels(), spec.workload.searches
            )
            table.add_row(exponent, *measure_mean_hops(session, pairs))
    return ScenarioOutcome(tables=[table], raw=table)


@register_scenario(
    "byzantine",
    description="Byzantine-node extension: plain vs redundant multi-path routing vs compromised fraction (object engine only)",
    defaults=ScenarioSpec(
        scenario="byzantine",
        topology=TopologySpec(kind="ideal", nodes=1 << 11),
        failures=FailureSpec(
            kind="byzantine",
            levels=(0.0, 0.05, 0.1, 0.2, 0.3),
            behavior=ByzantineBehavior.DROP,
        ),
        routing=RoutingSpec(recovery=RecoveryStrategy.TERMINATE.value),
        workload=WorkloadSpec(searches=200),
        extras={"redundancy": 3},
    ),
)
def _byzantine(spec: ScenarioSpec) -> ScenarioOutcome:
    """Failed searches vs fraction of Byzantine nodes, plain vs redundant routing.

    This is the Section-7 future-work extension: plain greedy (TERMINATE)
    routing fails whenever a compromised node sits on the greedy path, while
    redundant multi-path routing tolerates a substantially larger fraction.

    The one routing scenario off the ``EngineSession`` seam (object engine
    only), because no liveness mask over a snapshot reproduces its table:
    under DROP the hop *into* a compromised node is counted before the loss,
    where a batch router masking it dead would never take that hop; failed
    redundant legs add their hops to ``redundant_mean_hops``; and a detour is
    drawn from all live labels, so a compromised one is a valid leg *target*
    (arrival is checked before the drop) and an honest leg *source*, where a
    mask would make it a dead target.
    """
    if spec.routing.recovery_strategy() is not RecoveryStrategy.TERMINATE:
        raise SpecError(
            "routing.recovery must stay 'terminate' for 'byzantine' (honest hops "
            f"never recover), got {spec.routing.recovery!r}"
        )
    nodes = spec.topology.nodes
    behavior = spec.failures.behavior
    redundancy = int(spec.extra("redundancy"))
    seed = spec.seed
    graph = build_ideal_network(nodes, seed=seed).graph
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

    def measure(router, pairs) -> tuple[float, float]:
        """(failed fraction, mean hops of delivered searches) of ``router`` on ``pairs``."""
        routes = [router.route(source, target) for source, target in pairs]
        hops = [route.hops for route in routes if route.success]
        return (len(pairs) - len(hops)) / len(pairs), float(np.mean(hops)) if hops else 0.0

    for index, fraction in enumerate(spec.failures.levels):
        adversary = ByzantineModel(fraction, behavior=behavior, seed=seed + 10 + index)
        adversary.apply(graph)
        live = [
            label for label in graph.labels(only_alive=True)
            if not adversary.is_compromised(label)
        ]
        pairs = LookupWorkload(seed=seed + 20 + index).pairs(live, spec.workload.searches)
        plain_failed, plain_hops = measure(
            ByzantineAwareRouter(graph=graph, adversary=adversary, seed=seed + 30 + index),
            pairs,
        )
        redundant_failed, redundant_hops = measure(
            RedundantRouter(
                graph=graph, adversary=adversary, redundancy=redundancy, seed=seed + 40 + index
            ),
            pairs,
        )
        table.add_row(fraction, plain_failed, redundant_failed, plain_hops, redundant_hops)
        adversary.repair(graph)
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")
