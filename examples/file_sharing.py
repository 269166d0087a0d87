#!/usr/bin/env python3
"""File-sharing workload over the DHT layer.

The paper's introduction motivates the system with decentralised resource
sharing (the Napster/Gnutella problem).  This example models a small
file-sharing community:

* 400 peers join a :class:`repro.dht.DistributedHashTable`;
* 1 000 files are published, with sizes and names generated synthetically;
* peers fetch files according to a Zipf popularity distribution (a small set
  of popular files gets most of the requests, as measured in real networks);
* a flash crowd of departures (20% of peers crash at once) hits the network,
  and the example reports how many fetches keep succeeding thanks to
  replication and fault-tolerant routing, before and after a repair pass.

Run with::

    python examples/file_sharing.py
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.dht import DhtConfig, DistributedHashTable, SuccessorReplication
from repro.util.rng import spawn_rng


@dataclass
class ZipfKeyPopularity:
    """Zipf-distributed key popularity over a fixed key universe.

    Key ``i`` (0-indexed) is requested with probability proportional to
    ``1 / (i + 1)^alpha``; ``alpha`` around 0.8–1.2 matches measured
    file-sharing workloads.
    """

    universe: int
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = spawn_rng(self.seed, "zipf-keys")
        weights = np.arange(1, self.universe + 1, dtype=float) ** -self.alpha
        self._probabilities = weights / weights.sum()

    def sample_keys(self, count: int, prefix: str = "key") -> list[str]:
        """Return ``count`` key names sampled by popularity."""
        indices = self._rng.choice(self.universe, size=count, p=self._probabilities)
        return [f"{prefix}-{int(index)}" for index in indices]

    def all_keys(self, prefix: str = "key") -> list[str]:
        """Return the full key universe in rank order."""
        return [f"{prefix}-{index}" for index in range(self.universe)]


def main() -> None:
    space_size = 1 << 12
    dht = DistributedHashTable(
        DhtConfig(
            space_size=space_size,
            replication=SuccessorReplication(degree=2),
            seed=99,
        )
    )

    rng = spawn_rng(99, "file-sharing")
    peers = sorted(rng.choice(space_size, size=400, replace=False).tolist())
    dht.join_many(peers)
    print(f"{len(dht.members())} peers joined the swarm")

    # --- Publish the file catalogue. ----------------------------------------
    catalogue = ZipfKeyPopularity(universe=1000, alpha=0.9, seed=1)
    publish_messages = 0
    for index, key in enumerate(catalogue.all_keys(prefix="file")):
        owner = peers[index % len(peers)]
        result = dht.put(key, value={"size_kb": 64 + (index * 37) % 4096, "owner": owner},
                         origin=owner)
        publish_messages += result.messages
    print(f"published 1000 files, total publish traffic: {publish_messages} messages "
          f"({publish_messages / 1000:.1f} per file)")

    # --- Zipf-distributed fetch workload. -----------------------------------
    requests = catalogue.sample_keys(2000, prefix="file")
    popularity = Counter(requests)
    print(f"hottest file requested {popularity.most_common(1)[0][1]} times; "
          f"median file requested {sorted(popularity.values())[len(popularity) // 2]} times")

    def run_fetches(tag: str) -> None:
        ok, messages = 0, 0
        for request_index, key in enumerate(requests):
            origin = peers[(request_index * 13) % len(peers)]
            if not dht.graph.is_alive(origin):
                origin = None
            outcome = dht.get(key, origin=origin)
            ok += outcome.ok
            messages += outcome.messages
        print(f"  [{tag}] {ok}/{len(requests)} fetches succeeded, "
              f"{messages / len(requests):.1f} messages per fetch")

    print("\nfetch workload on the healthy swarm:")
    run_fetches("healthy")

    # --- Flash crowd of departures. ------------------------------------------
    crashed = rng.choice(peers, size=len(peers) // 5, replace=False)
    for victim in crashed:
        if dht.graph.is_alive(int(victim)):
            dht.crash(int(victim))
    print(f"\n{len(crashed)} peers (20%) crashed simultaneously")
    run_fetches("after crash, before repair")

    rehomed = dht.repair()
    print(f"repair pass re-homed {rehomed} keys from replicas")
    run_fetches("after repair")


if __name__ == "__main__":
    main()
