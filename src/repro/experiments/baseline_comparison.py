"""Comparison of the paper's overlay against Chord, Kleinberg, CAN, and Plaxton.

Section 3 of the paper argues that the existing structured systems are
instances of one metric-space framework and should therefore behave
similarly; this experiment quantifies that claim by running the same
uniformly random lookup workload over each system (at matched network size)
with and without node failures and reporting mean hop counts and failed-search
fractions.

Every system implements the :class:`~repro.overlay.Overlay` protocol, so the
measurement is engine-agnostic: ``engine="object"`` walks each system's
scalar ``route()`` while ``engine="fastpath"`` compiles each topology into
its array snapshot (``compile_snapshot()``) and batch-routes the identical
workload — hop-for-hop identical numbers, 10x+ the throughput, which is what
lets ``repro sweep`` grid protocols x failure rates x n at scale.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.can import CanNetwork
from repro.baselines.chord import ChordNetwork
from repro.baselines.kleinberg_grid import KleinbergGridNetwork
from repro.baselines.plaxton import PlaxtonNetwork
from repro.core.builder import build_ideal_network
from repro.core.failures import NodeFailureModel
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable, route_pairs_with_engine
from repro.overlay import PROTOCOLS, Overlay
from repro.scenarios.registry import register_scenario
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import (
    FailureSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
)
from repro.simulation.workload import LookupWorkload

#: Nothing to import: the scenario registers itself on import.
__all__: list[str] = []


def _measure(
    overlay: Overlay, searches: int, seed: int, engine: str
) -> tuple[float, float]:
    """Run ``searches`` random lookups; return (mean hops, failed fraction).

    The workload is drawn over the overlay's current live members; the two
    engines route the identical pairs and agree hop for hop, so the returned
    statistics are independent of ``engine``.
    """
    labels = overlay.labels(only_alive=True)
    pairs = LookupWorkload(seed=seed).pairs(labels, searches)
    if engine == "fastpath":
        from repro.fastpath import BatchGreedyRouter

        router = BatchGreedyRouter(
            overlay.compile_snapshot(), hop_limit=overlay.hop_limit
        )
        result = router.route_pairs(pairs)
        return result.mean_hops(), result.failed_count() / len(pairs)
    hops: list[int] = []
    failures = 0
    for source, target in pairs:
        result = overlay.route(source, target)
        if result.success:
            hops.append(result.hops)
        else:
            failures += 1
    return (float(np.mean(hops)) if hops else 0.0), failures / len(pairs)


def _power_law_row(n, searches, failure_level, seed, engine):
    """This paper's overlay (inverse power-law, lg n links, backtracking)."""
    build = build_ideal_network(n, seed=seed)
    graph = build.graph
    engines_used = set()

    def measure(workload_seed):
        pairs = LookupWorkload(seed=workload_seed).pairs(
            graph.labels(only_alive=True), searches
        )
        outcome = route_pairs_with_engine(
            graph, pairs, engine=engine,
            recovery=RecoveryStrategy.BACKTRACK, seed=seed,
        )
        engines_used.add(outcome.engine_used)
        mean_hops = float(np.mean(outcome.hops)) if outcome.hops else 0.0
        return mean_hops, outcome.failures / len(pairs)

    healthy = measure(seed + 1)
    failure_model = NodeFailureModel(failure_level, seed=seed + 2)
    failure_model.apply(graph)
    failed = measure(seed + 3)
    failure_model.repair(graph)
    row = (
        "this-paper (power-law + backtrack)", n, build.links_per_node + 2,
        healthy[0], healthy[1], failed[0], failed[1],
    )
    return row, engines_used


def _overlay_row(system, name, state, searches, failure_level, seed_block, engine):
    """One baseline system: measure intact, fail nodes, measure again, repair.

    ``seed_block`` is the system's historical seed base (``seed + 10*k``), so
    the per-system workload and failure draws are unchanged from the original
    hand-rolled comparison — and a single-protocol run reproduces exactly its
    row of the full table.
    """
    healthy = _measure(system, searches, seed_block + 1, engine)
    system.fail_fraction(failure_level, seed=seed_block + 2)
    failed = _measure(system, searches, seed_block + 3, engine)
    system.repair()
    nodes = len(system.labels(only_alive=False))
    row = (name, nodes, state, healthy[0], healthy[1], failed[0], failed[1])
    return row, {engine}


@register_scenario(
    "baselines",
    description="hop counts and failure resilience of Chord / Kleinberg / CAN / Plaxton vs this paper's overlay (both engines, protocol-grid ready)",
    defaults=ScenarioSpec(
        scenario="baselines",
        topology=TopologySpec(kind="ideal", nodes=1 << 10),
        failures=FailureSpec(kind="nodes", levels=(0.3,)),
        workload=WorkloadSpec(searches=200),
    ),
)
def _baselines(spec: ScenarioSpec) -> ScenarioOutcome:
    """Compare all systems at ``n = topology.nodes`` (grids use the nearest square).

    Each system is measured twice: on the intact network and after failing
    ``failures.levels[0]`` of its nodes uniformly at random (without running
    any repair protocol, as in the paper's experiments).  ``topology.nodes``
    must be a power of two — Chord and Plaxton are sized in bits — so
    ``--set topology.nodes=...`` sweeps all systems at matched size.
    ``topology.protocol`` restricts the run to one overlay family (one of
    :data:`repro.overlay.PROTOCOLS`; ``""`` measures all five), which is the
    sweep axis for protocol grids: ``repro sweep baselines --grid
    topology.protocol=chord,can --grid failures.levels=0.1,0.3 --set
    engine=fastpath``.
    """
    n = spec.topology.nodes
    bits = n.bit_length() - 1
    if n != 1 << bits:
        raise SpecError(
            f"topology.nodes must be a power of two for 'baselines', got {n} "
            f"(nearest: {1 << bits} and {1 << (bits + 1)})"
        )
    if len(spec.failures.levels) != 1:
        raise SpecError(
            "failures.levels must hold exactly one level for 'baselines' "
            f"(sweep it with --grid), got {spec.failures.levels!r}"
        )
    failure_level = spec.failures.levels[0]
    searches = spec.workload.searches
    seed = spec.seed
    engine = spec.engine
    side = int(round(math.sqrt(n)))
    table = ExperimentTable(
        title=f"Baseline comparison at n = {n} nodes ({failure_level:.0%} failures in second pass)",
        columns=[
            "system",
            "nodes",
            "state_per_node",
            "mean_hops",
            "failed_fraction",
            "mean_hops_after_failures",
            "failed_fraction_after_failures",
        ],
    )

    def chord_row():
        chord = ChordNetwork(bits=bits)
        return _overlay_row(
            chord, "chord", round(chord.average_table_size(), 1),
            searches, failure_level, seed + 10, engine,
        )

    def kleinberg_row():
        kleinberg = KleinbergGridNetwork(
            side=side, links_per_node=max(1, bits), seed=seed
        )
        return _overlay_row(
            kleinberg, "kleinberg-grid (r=2)", 4 + max(1, bits),
            searches, failure_level, seed + 20, engine,
        )

    def can_row():
        can = CanNetwork(side=side, dimensions=2)
        return _overlay_row(
            can, "can (d=2)", can.state_per_node(),
            searches, failure_level, seed + 30, engine,
        )

    def plaxton_row():
        plaxton = PlaxtonNetwork(digits=max(1, int(round(bits / 2))), base=4)
        return _overlay_row(
            plaxton, "plaxton (base 4)", plaxton.state_per_node(),
            searches, failure_level, seed + 40, engine,
        )

    builders = {
        "power-law": lambda: _power_law_row(n, searches, failure_level, seed, engine),
        "chord": chord_row,
        "kleinberg": kleinberg_row,
        "can": can_row,
        "plaxton": plaxton_row,
    }
    selected = (spec.topology.protocol,) if spec.topology.protocol else PROTOCOLS
    engines_used: set[str] = set()
    for name in selected:
        row, used = builders[name]()
        table.add_row(*row)
        engines_used |= used
    return ScenarioOutcome(
        tables=[table], raw=table, engine_used="+".join(sorted(engines_used))
    )
