#!/usr/bin/env python3
"""Quickstart: build a peer-to-peer network, publish resources, and look them up.

This example walks through the public API end to end:

1. create a :class:`repro.dht.DistributedHashTable` (single copy per key, so
   the routing layer's behaviour is what shows) over a 2^12-point ring,
2. let 512 nodes join through the paper's dynamic construction heuristic,
3. publish a handful of resources and locate them by greedy routing,
4. crash 30% of the nodes and show that lookups still succeed thanks to the
   backtracking recovery strategy, and
5. run a repair pass and compare the routing cost before and after.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import statistics

from repro import RecoveryStrategy
from repro.core.failures import NodeFailureModel
from repro.dht import DistributedHashTable


def main() -> None:
    space_size = 1 << 12
    dht = DistributedHashTable(
        space_size, recovery=RecoveryStrategy.BACKTRACK, seed=2024, replicas=0
    )

    # --- 1. Nodes join one at a time (Section-5 construction heuristic). ---
    members = list(range(0, space_size, 8))          # 512 nodes
    dht.join_many(members)
    print(f"network: {len(dht.members())} nodes, "
          f"{dht.links_per_node} long links per node")

    # --- 2. Publish some resources. ----------------------------------------
    documents = {
        "alice.txt": "Lewis Carroll",
        "moby-dick.txt": "Herman Melville",
        "war-and-peace.txt": "Leo Tolstoy",
        "odyssey.txt": "Homer",
        "dune.txt": "Frank Herbert",
    }
    for key, value in documents.items():
        holder = dht.put(key, value, origin=members[0]).holder
        print(f"  published {key!r:22} -> stored at node {holder}")

    # --- 3. Look the resources up from a different corner of the network. --
    print("\nlookups from node", members[-1])
    hops = []
    for key in documents:
        outcome = dht.get(key, origin=members[-1])
        hops.append(outcome.route.hops)
        print(f"  {key!r:22} found={outcome.ok}  hops={outcome.route.hops}")
    print(f"mean lookup cost: {statistics.mean(hops):.1f} hops "
          f"(theory: O(log^2 n / l) = "
          f"{(space_size.bit_length() ** 2) / dht.links_per_node:.1f} shape)")

    # --- 4. Crash 30% of the nodes and look everything up again. -----------
    failure = NodeFailureModel(0.3, seed=7, protect=frozenset({members[0], members[-1]}))
    failure.apply(dht.graph)
    print(f"\ncrashed {len(failure.failed_labels)} nodes (30%)")
    found = 0
    routed = 0
    for key in documents:
        outcome = dht.get(key, origin=members[-1])
        found += outcome.ok
        routed += outcome.route.success
        print(f"  {key!r:22} found={outcome.ok}  hops={outcome.route.hops}")
    print(f"{routed}/{len(documents)} lookups still routed successfully; "
          f"{found}/{len(documents)} values were available.")
    print("(keys whose single storing node crashed stay unavailable until it returns —")
    print(" examples/file_sharing.py turns replication on to close that gap)")

    # --- 5. The crashed nodes come back online and the overlay self-repairs. -
    failure.repair(dht.graph)
    dht.repair()
    outcome = dht.get("dune.txt", origin=members[-1])
    print(f"\nafter recovery: dune.txt found={outcome.ok} in {outcome.route.hops} hops")


if __name__ == "__main__":
    main()
