"""Comparison of the paper's overlay against Chord, Kleinberg, CAN, and Plaxton.

Section 3 of the paper argues that the existing structured systems are
instances of one metric-space framework and should therefore behave
similarly; this experiment quantifies that claim by running the same
uniformly random lookup workload over each system (at matched network size)
with and without node failures and reporting mean hop counts and failed-search
fractions.

Every system — the four table-backed :class:`~repro.overlay.Overlay`
protocols and the power-law graph alike — is measured through one
:class:`~repro.scenarios.rounds.EngineSession`: ``engine="object"`` walks the
system's scalar ``route()`` while ``engine="fastpath"`` mirrors the topology
into its array snapshot and batch-routes the identical workload — hop-for-hop
identical numbers, 10x+ the throughput, which is what lets ``repro sweep``
grid protocols x failure rates x n at scale.
"""

from __future__ import annotations

import math

from repro.baselines.can import CanNetwork
from repro.baselines.chord import ChordNetwork
from repro.baselines.kleinberg_grid import KleinbergGridNetwork
from repro.baselines.plaxton import PlaxtonNetwork
from repro.core.builder import build_ideal_network
from repro.core.routing import RecoveryStrategy
from repro.experiments.runner import ExperimentTable, lookup_pairs, measure_mean_hops
from repro.overlay import PROTOCOLS
from repro.scenarios.registry import register_scenario
from repro.scenarios.rounds import EngineSession
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import (
    FailureSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
)

#: Nothing to import: the scenario registers itself on import.
__all__: list[str] = []


def _row(system, name, state, searches, failure_level, seed_block, engine):
    """One freshly built system: measure intact, fail nodes, measure again.

    ``seed_block`` is the system's historical seed base (``seed + 10*k``;
    ``seed`` itself for the power-law overlay, whose backtracking router is
    also seeded with it), so the per-system workload and failure draws are
    unchanged from the original hand-rolled comparison — and a
    single-protocol run reproduces exactly its row of the full table.  The
    table-backed systems route with their own policy and ignore the recovery
    strategy.
    """
    with EngineSession(
        system, engine, RecoveryStrategy.BACKTRACK, seed_block
    ) as session:

        def measure(workload_seed):
            return measure_mean_hops(session, lookup_pairs(session, workload_seed, searches))

        nodes = len(session.live_labels())
        healthy = measure(seed_block + 1)
        session.fail_nodes(failure_level, seed_block + 2)
        failed = measure(seed_block + 3)
    return (name, nodes, state, *healthy, *failed)


def _power_law_row(n, searches, failure_level, seed, engine):
    """This paper's overlay (inverse power-law, lg n links, backtracking)."""
    build = build_ideal_network(n, seed=seed)
    return _row(
        build, "this-paper (power-law + backtrack)", build.links_per_node + 2,
        searches, failure_level, seed, engine,
    )


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
    must be a power of two — Chord and Plaxton are sized in bits — and at
    least 4, so ``--set topology.nodes=...`` sweeps all systems at matched
    size.
    ``topology.protocol`` restricts the run to one overlay family (one of
    :data:`repro.overlay.PROTOCOLS`; ``""`` measures all five), which is the
    sweep axis for protocol grids: ``repro sweep baselines --grid
    topology.protocol=chord,can --grid failures.levels=0.1,0.3 --set
    engine=fastpath``.
    """
    n = spec.topology.nodes
    bits = n.bit_length() - 1
    if n < 4:
        raise SpecError(
            f"topology.nodes must be at least 4 for 'baselines', got {n} (the Kleinberg "
            "grid needs a side of 2, and each system must keep two live nodes to route between)"
        )
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
        return _row(
            chord, "chord", round(chord.average_table_size(), 1),
            searches, failure_level, seed + 10, engine,
        )

    def kleinberg_row():
        kleinberg = KleinbergGridNetwork(
            side=side, links_per_node=max(1, bits), seed=seed
        )
        return _row(
            kleinberg, "kleinberg-grid (r=2)", 4 + max(1, bits),
            searches, failure_level, seed + 20, engine,
        )

    def can_row():
        can = CanNetwork(side=side, dimensions=2)
        return _row(
            can, "can (d=2)", can.state_per_node(),
            searches, failure_level, seed + 30, engine,
        )

    def plaxton_row():
        plaxton = PlaxtonNetwork(digits=max(1, int(round(bits / 2))), base=4)
        return _row(
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
    for name in selected:
        table.add_row(*builders[name]())
    return ScenarioOutcome(tables=[table], raw=table)
