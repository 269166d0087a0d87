"""Table 1: measured delivery times versus the theoretical bound shapes.

Table 1 of the paper summarises the upper and lower bounds on greedy routing
for six models (no failures with 1 / polylog / large numbers of links, link
failures with the randomized and deterministic strategies, and node failures).
This experiment measures mean delivery time for each model over a parameter
sweep and reports it next to the corresponding bound shape, fitting the single
scaling constant the asymptotic notation hides.

The reproduction claim is about *shape*: e.g. measured hops for the
single-link model should grow like ``log^2 n`` (good R² against the fitted
``a·log²n + b`` model), hops with ``l`` links should fall roughly like
``1/l``, hops under link failures like ``1/p``, and the deterministic
base-``b`` scheme should deliver in about ``log_b n`` hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import bounds
from repro.core.builder import (
    DeterministicGraphBuilder,
    RandomGraphBuilder,
    build_ideal_network,
)
from repro.core.distributions import InversePowerLawDistribution
from repro.core.failures import LinkFailureModel
from repro.core.metric import RingMetric
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable, measure_mean_hops
from repro.scenarios.registry import register_scenario
from repro.scenarios.rounds import EngineSession, IdealNetwork
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import RoutingSpec, ScenarioSpec, WorkloadSpec
from repro.simulation.workload import LookupWorkload

__all__ = ["Table1Result"]


@dataclass
class Table1Result:
    """Measured sweeps for every row of Table 1."""

    single_link: ExperimentTable
    polylog_links: ExperimentTable
    deterministic: ExperimentTable
    link_failures_random: ExperimentTable
    link_failures_deterministic: ExperimentTable
    node_failures: ExperimentTable
    binomial_nodes: ExperimentTable
    parameters: dict = field(default_factory=dict)

    def tables(self) -> list[ExperimentTable]:
        """All sub-tables in Table-1 row order."""
        return [
            self.single_link,
            self.polylog_links,
            self.deterministic,
            self.link_failures_random,
            self.link_failures_deterministic,
            self.node_failures,
            self.binomial_nodes,
        ]

    def to_text(self) -> str:
        """Render every sub-table."""
        return "\n\n".join(table.to_text() for table in self.tables())


@register_scenario(
    "table1",
    description="measured delivery time vs the theoretical bound shape for every Table-1 model",
    defaults=ScenarioSpec(
        scenario="table1",
        routing=RoutingSpec(recovery=RecoveryStrategy.BACKTRACK.value),
        workload=WorkloadSpec(searches=150),
        extras={
            "sizes": tuple(1 << k for k in range(8, 13)),
            "link_counts": (1, 2, 4, 8, 12),
            "bases": (2, 4, 8, 16),
            "probabilities": (1.0, 0.9, 0.75, 0.5, 0.25),
        },
    ),
)
def _table1(spec: ScenarioSpec) -> ScenarioOutcome:
    """Measure delivery time for every Table-1 model.

    The four sweep axes live in ``extras``: ``sizes`` (network sizes for the
    scaling sweeps), ``link_counts`` (values of ``l`` for the polylog-links
    sweep), ``bases`` (the deterministic scheme) and ``probabilities``
    (survival probabilities for the failure sweeps).  ``workload.searches``
    is per measurement point and ``routing.recovery`` applies to every
    measurement (the paper's default is backtracking, the best-performing
    strategy).  Every measurement routes through an
    :class:`~repro.scenarios.rounds.EngineSession`: ``engine="fastpath"``
    accelerates all of them, the ideal-network rows skip the object graph
    entirely, and the link-failure sweeps follow the model's fail/revive
    flips as edge-liveness deltas instead of recompiling — with results
    identical to the object engine at the same seed.
    """
    sizes = list(spec.extra("sizes"))
    link_counts = list(spec.extra("link_counts"))
    bases = list(spec.extra("bases"))
    probabilities = list(spec.extra("probabilities"))
    searches = spec.workload.searches
    seed = spec.seed
    recovery = spec.routing.recovery_strategy()
    engine = spec.engine
    engines_used: set[str] = set()

    def measure(session: EngineSession, measure_seed: int) -> tuple[float, float]:
        """(mean hops, failed fraction) of ``measure_seed``'s lookups, freshly armed."""
        engines_used.add(session.engine_used)
        session.rearm(recovery, measure_seed)
        pairs = LookupWorkload(seed=measure_seed).pairs(session.live_labels(), searches)
        return measure_mean_hops(session, pairs)

    def measure_once(system, measure_seed: int) -> tuple[float, float]:
        with EngineSession(system, engine, recovery, measure_seed) as session:
            return measure(session, measure_seed)

    def link_failure_sweep(build, model_seed: int, measure_seed: int, add_row) -> None:
        """Sweep link-survival probabilities over one shared topology (rows 4/5)."""
        with EngineSession(build, engine, recovery, measure_seed) as session:
            for index, p in enumerate(probabilities):
                model = LinkFailureModel(p, seed=model_seed + index)
                model.apply(build.graph)
                add_row(p, *measure(session, measure_seed + index))
                model.repair(build.graph)

    # Row 1: single long link, no failures — hops should grow ~ log^2 n.
    single = ExperimentTable(
        title="Table 1 row 1 — no failures, l = 1: measured vs O(log^2 n)",
        columns=["n", "measured_hops", "bound_shape_log2n_sq"],
    )
    for index, n in enumerate(sizes):
        hops, _ = measure_once(IdealNetwork(n, 1, seed + index), seed + 10 + index)
        single.add_row(n, hops, bounds.upper_bound_single_link(n))

    # Row 2: l links in [1, lg n] — hops should fall roughly like 1/l.
    polylog_n = sizes[-1]
    polylog = ExperimentTable(
        title=f"Table 1 row 2 — no failures, n = {polylog_n}: measured vs O(log^2 n / l)",
        columns=["links", "measured_hops", "bound_shape"],
    )
    for index, links in enumerate(link_counts):
        hops, _ = measure_once(
            IdealNetwork(polylog_n, links, seed + 20 + index), seed + 30 + index
        )
        polylog.add_row(links, hops, bounds.upper_bound_multiple_links(polylog_n, links))

    # Row 3: deterministic base-b scheme — hops should be ~ log_b n.
    deterministic = ExperimentTable(
        title=f"Table 1 row 3 — deterministic base-b links, n = {polylog_n}: measured vs O(log_b n)",
        columns=["base", "links_per_node", "measured_hops", "bound_shape_log_b_n"],
    )
    for index, base in enumerate(bases):
        builder = DeterministicGraphBuilder(
            space=RingMetric(polylog_n), base=base, variant="full", seed=seed + 40 + index
        )
        build = builder.build()
        hops, _ = measure_once(build, seed + 50 + index)
        deterministic.add_row(
            base, build.links_per_node, hops, bounds.upper_bound_deterministic(polylog_n, base)
        )

    # Row 4: link failures, randomized strategy — hops should grow ~ 1/p.
    failure_n = sizes[-1]
    failure_links = max(1, int(np.ceil(np.log2(failure_n))))
    link_failures_random = ExperimentTable(
        title=(
            f"Table 1 row 4 — link failures, n = {failure_n}, l = {failure_links}: "
            "measured vs O(log^2 n / (p l))"
        ),
        columns=["p_link_alive", "measured_hops", "failed_fraction", "bound_shape"],
    )
    base_build = build_ideal_network(failure_n, links_per_node=failure_links, seed=seed + 60)
    link_failure_sweep(
        base_build, model_seed=seed + 70, measure_seed=seed + 80,
        add_row=lambda p, hops, failed: link_failures_random.add_row(
            p, hops, failed, bounds.upper_bound_link_failures_random(failure_n, failure_links, p)
        ),
    )

    # Row 5: link failures, deterministic powers-of-b scheme — hops ~ b log n / p.
    deterministic_base = 2
    link_failures_det = ExperimentTable(
        title=(
            f"Table 1 row 5 — link failures, deterministic base-{deterministic_base} powers, "
            f"n = {failure_n}: measured vs O(b log n / p)"
        ),
        columns=["p_link_alive", "measured_hops", "failed_fraction", "bound_shape"],
    )
    det_builder = DeterministicGraphBuilder(
        space=RingMetric(failure_n), base=deterministic_base, variant="powers", seed=seed + 90
    )
    det_build = det_builder.build()
    link_failure_sweep(
        det_build, model_seed=seed + 100, measure_seed=seed + 110,
        add_row=lambda p, hops, failed: link_failures_det.add_row(
            p, hops, failed,
            bounds.upper_bound_link_failures_deterministic(failure_n, deterministic_base, p),
        ),
    )

    # Row 6: node failures after construction — hops ~ 1 / (1 - p).
    node_failures = ExperimentTable(
        title=(
            f"Table 1 row 6 — node failures, n = {failure_n}, l = {failure_links}: "
            "measured vs O(log^2 n / ((1-p) l))"
        ),
        columns=["p_node_failed", "measured_hops", "failed_fraction", "bound_shape"],
    )
    with EngineSession(
        IdealNetwork(failure_n, failure_links, seed + 120), engine, recovery, seed + 140
    ) as session:
        for index, p_alive in enumerate(probabilities):
            p_failed = round(1.0 - p_alive, 10)
            session.fail_nodes(p_failed, seed + 130 + index)
            hops, failed = measure(session, seed + 140 + index)
            session.restore()
            node_failures.add_row(
                p_failed, hops, failed,
                bounds.upper_bound_node_failures(failure_n, failure_links, p_failed),
            )

    # Section 4.3.4.1: binomially distributed nodes — delivery time unchanged.
    binomial = ExperimentTable(
        title=(
            "Section 4.3.4.1 — binomially placed nodes (links drawn to existing nodes only): "
            "measured vs O(log^2 n) of the occupied count"
        ),
        columns=["presence_p", "occupied_nodes", "measured_hops", "bound_shape_log2_sq"],
    )
    binomial_space = sizes[-1]
    for index, presence in enumerate([1.0, 0.75, 0.5, 0.25]):
        builder = RandomGraphBuilder(
            space=RingMetric(binomial_space),
            distribution=InversePowerLawDistribution(binomial_space),
            links_per_node=1,
            presence_probability=presence,
            seed=seed + 150 + index,
        )
        build = builder.build()
        hops, _ = measure_once(build, seed + 160 + index)
        occupied = len(build.present_labels)
        binomial.add_row(
            presence, occupied, hops, bounds.upper_bound_single_link(max(2, occupied))
        )

    result = Table1Result(
        single_link=single,
        polylog_links=polylog,
        deterministic=deterministic,
        link_failures_random=link_failures_random,
        link_failures_deterministic=link_failures_det,
        node_failures=node_failures,
        binomial_nodes=binomial,
        parameters={
            "sizes": sizes,
            "link_counts": link_counts,
            "bases": bases,
            "probabilities": probabilities,
            "searches": searches,
            "seed": seed,
            "recovery": recovery.value,
            "engine": engine,
            "engine_used": "+".join(sorted(engines_used)) or engine,
        },
    )
    return ScenarioOutcome(
        tables=result.tables(),
        raw=result,
        engine_used=result.parameters["engine_used"],
    )
