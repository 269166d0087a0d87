#!/usr/bin/env python3
"""Quickstart: build a peer-to-peer overlay, crash part of it, route, repair.

This example walks through the public API end to end on the
:class:`repro.P2PNetwork` facade:

1. let 512 nodes join a 2^12-point ring through the paper's dynamic
   construction heuristic (Section 5),
2. route a sample of lookups by greedy routing,
3. crash 30% of the nodes and route the same kind of sample between the
   survivors, recovering from dead ends by backtracking, and
4. run a repair pass that excises the crashed nodes and regenerates their
   links, then route once more.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import statistics

from repro import P2PNetwork, RecoveryStrategy
from repro.simulation.workload import LookupWorkload


def lookup_sample(network: P2PNetwork, seed: int, count: int = 200) -> None:
    """Route ``count`` random lookups between live members and summarise them."""
    pairs = LookupWorkload(seed=seed).pairs(network.members(), count)
    routes = [network.route(source, target) for source, target in pairs]
    delivered = [route for route in routes if route.success]
    hops = [route.hops for route in delivered]
    print(f"  {len(delivered)}/{count} delivered, "
          f"mean {statistics.mean(hops):.2f} hops, max {max(hops)}, "
          f"{sum(route.backtracks for route in routes)} backtracks")
    source, target = pairs[0]
    print(f"  e.g. {source} -> {target}: path {routes[0].path}")


def main() -> None:
    space_size = 1 << 12
    network = P2PNetwork(space_size, recovery=RecoveryStrategy.BACKTRACK, seed=2024)

    # --- 1. Nodes join one at a time (Section-5 construction heuristic). ---
    network.join_many(range(0, space_size, 8))          # 512 nodes
    print(f"network: {len(network.members())} nodes, "
          f"{network.links_per_node} long links per node")

    # --- 2. Greedy routing on the healthy overlay. -------------------------
    print("\nhealthy overlay")
    lookup_sample(network, seed=1)
    print(f"  (theory: O(log^2 n / l) = "
          f"{space_size.bit_length() ** 2 / network.links_per_node:.1f} shape)")

    # --- 3. Crash 30% of the nodes; backtracking routes around them. -------
    crashed = network.fail_fraction(0.3, seed=7)
    print(f"\ncrashed {len(crashed)} nodes (30%), no repair yet")
    lookup_sample(network, seed=2)

    # --- 4. A repair pass excises the crashed nodes and regenerates links. -
    network.repair()
    print(f"\nafter repair: {len(network.members())} nodes")
    lookup_sample(network, seed=3)


if __name__ == "__main__":
    main()
