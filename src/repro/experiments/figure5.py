"""Figure 5: link-length distribution of the construction heuristic.

The paper builds ten networks of 2^14 nodes with 14 links each using the
Section-5 heuristic, averages the empirical distribution of long-distance
link lengths, and compares it to the ideal inverse power-law distribution
with exponent 1.  Figure 5(a) overlays the two distributions (log-log);
Figure 5(b) plots the absolute error, whose largest magnitude is roughly
0.022 at length 2.

The ``"figure5"`` scenario reproduces both panels as numeric series.  The
registered defaults are scaled down (2^11 nodes, 5 networks) so the
experiment runs in seconds; override ``topology.nodes=16384``,
``topology.links_per_node=14``, ``workload.networks=10`` for the paper-scale
run.

Unlike the routing experiments (figure6/figure7/table1), Figure 5 measures
the *construction* heuristic only — no queries are routed — so the spec's
``engine`` field is ignored and reported as ``"object"``; the
:mod:`repro.fastpath` engine accelerates routing evaluation, not incremental
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import total_variation_distance
from repro.core.construction import (
    InverseDistanceReplacement,
    LinkReplacementPolicy,
    NeverReplace,
    OldestLinkReplacement,
    build_heuristic_network,
)
from repro.core.distributions import InversePowerLawDistribution
from repro.experiments.runner import ExperimentTable
from repro.scenarios.registry import register_scenario
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import (
    FailureSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["Figure5Result", "REPLACEMENT_POLICIES", "empirical_link_distribution"]

#: Link-replacement rules by their spec name (``extras.replacement_policy``).
REPLACEMENT_POLICIES = {
    "inverse-distance": InverseDistanceReplacement,
    "oldest-link": OldestLinkReplacement,
    "never-replace": NeverReplace,
}


@dataclass
class Figure5Result:
    """Numeric reproduction of Figure 5.

    Attributes
    ----------
    lengths:
        Link lengths (1 .. n/2) with non-zero ideal probability.
    derived:
        Average empirical probability of each length across the constructed
        networks (Figure 5a, DERIVED curve).
    ideal:
        Ideal inverse power-law probability of each length (Figure 5a, IDEAL).
    absolute_error:
        ``derived − ideal`` per length (Figure 5b).
    max_absolute_error:
        The largest magnitude of the absolute error.
    total_variation:
        Total variation distance between the derived and ideal distributions.
    parameters:
        The experiment parameters used.
    """

    lengths: np.ndarray
    derived: np.ndarray
    ideal: np.ndarray
    absolute_error: np.ndarray
    max_absolute_error: float
    total_variation: float
    parameters: dict

    def to_table(self, max_rows: int = 20) -> ExperimentTable:
        """Return the head of the distribution as a printable table."""
        table = ExperimentTable(
            title="Figure 5: heuristic link-length distribution vs ideal 1/d",
            columns=["length", "derived", "ideal", "absolute_error"],
            notes=(
                f"max |error| = {self.max_absolute_error:.4f}, "
                f"total variation distance = {self.total_variation:.4f}"
            ),
        )
        for index in range(min(max_rows, len(self.lengths))):
            table.add_row(
                int(self.lengths[index]),
                float(self.derived[index]),
                float(self.ideal[index]),
                float(self.absolute_error[index]),
            )
        return table


def empirical_link_distribution(lengths: list[int], n: int) -> np.ndarray:
    """Return the empirical probability of each ring distance ``1 .. n // 2``."""
    max_distance = n // 2
    histogram = np.zeros(max_distance, dtype=float)
    for length in lengths:
        if 1 <= length <= max_distance:
            histogram[length - 1] += 1
    total = histogram.sum()
    if total > 0:
        histogram /= total
    return histogram


def _measure_figure5(
    nodes: int,
    links_per_node: int | None,
    networks: int,
    replacement_policy: LinkReplacementPolicy,
    seed: int,
) -> Figure5Result:
    """Average the link-length distribution of ``networks`` heuristic builds.

    ``links_per_node=None`` means ``ceil(lg nodes)`` (the paper uses 14 at
    2^14 nodes); network ``i`` is built with ``seed + i``.  Takes a policy
    *object* so the ``"ablation-replacement"`` scenario can reuse it.
    """
    if links_per_node is None:
        links_per_node = max(1, int(np.ceil(np.log2(nodes))))

    max_distance = nodes // 2
    accumulated = np.zeros(max_distance, dtype=float)
    for network_index in range(networks):
        construction = build_heuristic_network(
            n=nodes,
            links_per_node=links_per_node,
            replacement_policy=replacement_policy,
            seed=seed + network_index,
        )
        lengths = construction.graph.long_link_lengths()
        accumulated += empirical_link_distribution(lengths, nodes)
    derived = accumulated / networks

    ideal_distribution = InversePowerLawDistribution(nodes, exponent=1.0)
    ideal = np.array(
        [ideal_distribution.link_probability(distance) for distance in range(1, max_distance + 1)]
    )

    error = derived - ideal
    return Figure5Result(
        lengths=np.arange(1, max_distance + 1),
        derived=derived,
        ideal=ideal,
        absolute_error=error,
        max_absolute_error=float(np.max(np.abs(error))),
        total_variation=total_variation_distance(derived, ideal),
        parameters={
            "nodes": nodes,
            "links_per_node": links_per_node,
            "networks": networks,
            "replacement_policy": type(replacement_policy).__name__,
            "seed": seed,
        },
    )


@register_scenario(
    "figure5",
    description="link-length distribution of the §5 construction heuristic vs the ideal 1/d law (Figure 5a/5b)",
    defaults=ScenarioSpec(
        scenario="figure5",
        topology=TopologySpec(kind="heuristic", nodes=1 << 11),
        failures=FailureSpec(kind="none"),
        workload=WorkloadSpec(searches=1, networks=5),
        extras={"replacement_policy": "inverse-distance", "max_rows": 20},
    ),
)
def _figure5(spec: ScenarioSpec) -> ScenarioOutcome:
    """Reproduce Figure 5(a)/(b); ``extras.max_rows`` caps the printed head."""
    name = spec.extra("replacement_policy")
    if name not in REPLACEMENT_POLICIES:
        raise SpecError(
            f"extras.replacement_policy must be one of {sorted(REPLACEMENT_POLICIES)}, "
            f"got {name!r}"
        )
    result = _measure_figure5(
        spec.topology.nodes,
        spec.topology.links_per_node,
        spec.workload.networks,
        REPLACEMENT_POLICIES[name](),
        spec.seed,
    )
    return ScenarioOutcome(
        tables=[result.to_table(max_rows=int(spec.extra("max_rows")))],
        raw=result,
        engine_used="object",
    )
