"""High-level facade: the membership and routing half of a peer-to-peer network.

:class:`P2PNetwork` ties the pieces of the core library together into the
overlay the paper describes end to end:

* a metric space (ring),
* an overlay graph maintained by the Section-5 construction heuristic as
  nodes join and leave,
* greedy routing with a configurable failure-recovery strategy, and
* a maintenance daemon that repairs the overlay after crashes.

The facade exposes ``join``, ``leave``, ``crash``, ``repair`` and ``route``;
each :class:`~repro.core.routing.RouteResult` carries the hop count, the
message cost the paper analyses.  Resource location — hashing keys to
points, storing them at the responsible node, replication — is
:class:`repro.dht.DistributedHashTable`, a ``P2PNetwork`` with storage.
"""

from __future__ import annotations

import numpy as np

from repro.core.construction import (
    HeuristicConstruction,
    InverseDistanceReplacement,
    LinkReplacementPolicy,
)
from repro.core.maintenance import MaintenanceDaemon
from repro.core.metric import RingMetric
from repro.core.routing import GreedyRouter, RecoveryStrategy, RouteResult
from repro.util.validation import ensure_positive

__all__ = ["P2PNetwork"]


class P2PNetwork:
    """A peer-to-peer overlay over a ring identifier space.

    Parameters
    ----------
    space_size:
        Number of grid points of the identifier ring.  Node addresses live
        in ``[0, space_size)``.
    links_per_node:
        Number of long-distance links per node (defaults to ``ceil(lg
        space_size)``, the paper's choice).
    recovery:
        Failure-recovery strategy for routes (default: backtracking, the
        best-performing strategy in the paper's experiments).
    replacement_policy:
        Link-replacement rule used by the construction heuristic.
    seed:
        Base seed for all randomness.

    Examples
    --------
    >>> network = P2PNetwork(space_size=1024, seed=1)
    >>> network.join_many(list(range(0, 1024, 16)))
    >>> network.route(0, 512).success
    True
    """

    def __init__(
        self,
        space_size: int,
        links_per_node: int | None = None,
        recovery: RecoveryStrategy = RecoveryStrategy.BACKTRACK,
        replacement_policy: LinkReplacementPolicy | None = None,
        seed: int = 0,
    ) -> None:
        ensure_positive(space_size, "space_size")
        self.space = RingMetric(space_size)
        if links_per_node is None:
            links_per_node = max(1, int(np.ceil(np.log2(max(2, space_size)))))
        self.links_per_node = links_per_node
        self.recovery = recovery
        self.seed = seed

        self.construction = HeuristicConstruction(
            space=self.space,
            links_per_node=links_per_node,
            replacement_policy=replacement_policy or InverseDistanceReplacement(),
            seed=seed,
        )
        self.maintenance = MaintenanceDaemon(self.construction)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    @property
    def graph(self):
        """The underlying overlay graph."""
        return self.construction.graph

    def members(self) -> list[int]:
        """Return the labels of all live member nodes."""
        return self.graph.labels(only_alive=True)

    # -- Overlay protocol surface (see repro.overlay) ------------------------
    # The facade conforms to the same structural interface as the baseline
    # topologies, so harness code can treat all five interchangeably.  The
    # liveness state lives in the overlay graph rather than a mixin array.

    def labels(self, only_alive: bool = True) -> list[int]:
        """Member labels in ascending order (the protocol's promise).

        The underlying graph's own ``labels()`` keeps insertion order (the
        scalar re-route pool's draw order), so the facade sorts a copy here.
        """
        return sorted(self.graph.labels(only_alive=only_alive))

    def is_alive(self, label: int) -> bool:
        """Whether ``label`` is a live member (``False`` for non-members)."""
        return self.graph.has_node(label) and self.graph.is_alive(label)

    def neighbors_of(self, label: int) -> list[int]:
        """The neighbour labels the greedy router considers at ``label``."""
        return self.graph.neighbors_of(label)

    def fail_node(self, label: int) -> None:
        """Crash the member at ``label`` (no-op for non-members and the dead)."""
        if self.graph.has_node(label) and self.graph.is_alive(label):
            self.crash(label)

    def fail_fraction(self, fraction: float, seed: int = 0) -> list[int]:
        """Crash a uniformly random fraction of the live members."""
        from repro.overlay.mixin import apply_fail_fraction

        return apply_fail_fraction(self, fraction, seed, "network-failures")

    def route(self, source: int, target: int) -> RouteResult:
        """Route between two member nodes using the configured strategy.

        Each call spins up a fresh router, so every route starts the random
        re-route detour stream from this network's seed.
        """
        router = GreedyRouter(graph=self.graph, recovery=self.recovery, seed=self.seed)
        return router.route(source, target)

    def compile_snapshot(self):
        """Compile the current overlay into an immutable array snapshot.

        To route batches the way :meth:`route` does, open
        ``EngineSession(network, "fastpath", network.recovery, network.seed)``
        (:mod:`repro.scenarios.rounds`) instead: it follows later mutations
        through deltas rather than recompiling.
        """
        from repro.fastpath import compile_snapshot

        return compile_snapshot(self.graph)

    def join(self, address: int) -> None:
        """Add a node at ``address`` (stored as ``int(address)``) to the network.

        Raises
        ------
        ValueError
            If the address is outside the identifier space or already taken.
        """
        if not self.space.contains(address):
            raise ValueError(
                f"address {address} is outside the identifier space "
                f"[0, {self.space.size()})"
            )
        self.construction.add_point(int(address))

    def join_many(self, addresses: list[int]) -> None:
        """Add several nodes in the given order."""
        for address in addresses:
            self.join(address)

    def leave(self, address: int) -> None:
        """Gracefully remove a node; its former neighbours regenerate links."""
        if not self.graph.has_node(address):
            raise ValueError(f"no node at address {address}")
        self.maintenance.handle_departure(address)

    def crash(self, address: int) -> None:
        """Abruptly fail a node; it stays in the graph, dead, until :meth:`repair`."""
        if not self.graph.has_node(address):
            raise ValueError(f"no node at address {address}")
        self.graph.fail_node(address)

    def repair(self) -> None:
        """Run a maintenance pass over the whole network.

        Crashed nodes are excised from the construction and their former
        neighbours regenerate links.
        """
        crashed = [
            node.label for node in self.graph.nodes() if not node.alive
        ]
        for label in crashed:
            self.maintenance.handle_departure(label)
        self.maintenance.repair_all_batched()
