"""The distributed hash table facade: the repo's one resource-location API.

:class:`DistributedHashTable` adds a key hash, per-node storage and a
replication policy to a :class:`~repro.core.network.P2PNetwork` (which owns
membership, maintenance and greedy routing), giving the put/get service the
paper's introduction motivates.  Every operation is routed over the overlay
from a caller-chosen origin node, and the message cost of each
operation is reported so that applications can observe the
``O(log^2 n / l)``-style behaviour the paper proves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.identifiers import KeyHasher, Sha256Hasher
from repro.core.network import P2PNetwork
from repro.core.routing import RecoveryStrategy, RouteResult
from repro.dht.replication import ReplicationPolicy, SuccessorReplication
from repro.dht.storage import NodeStorage
from repro.util.rng import RandomSource
from repro.util.validation import ensure_positive

__all__ = ["DhtConfig", "DhtOperationResult", "DistributedHashTable"]


@dataclass
class DhtConfig:
    """Configuration of a :class:`DistributedHashTable`.

    Attributes
    ----------
    space_size:
        Size of the identifier ring.
    links_per_node:
        Long links per node; defaults to ``ceil(lg space_size)`` when ``None``.
    replication:
        Replication policy (default: two successor replicas).
    recovery:
        Routing recovery strategy (default: backtracking).
    seed:
        Base seed for all randomness.
    """

    space_size: int
    links_per_node: int | None = None
    replication: ReplicationPolicy = field(default_factory=SuccessorReplication)
    recovery: RecoveryStrategy = RecoveryStrategy.BACKTRACK
    seed: int = 0

    def __post_init__(self) -> None:
        ensure_positive(self.space_size, "space_size")
        if self.links_per_node is None:
            self.links_per_node = max(1, int(np.ceil(np.log2(max(2, self.space_size)))))


@dataclass
class DhtOperationResult:
    """Result of a DHT operation (put / get / delete).

    Attributes
    ----------
    ok:
        Whether the operation succeeded.
    key:
        The key operated on.
    value:
        The value read (for ``get``) or written (for ``put``).
    holder:
        The node that served the operation (responsible node or replica).
    messages:
        Total overlay messages the operation cost (routing + replication).
    route:
        The primary routing result underlying the operation.
    """

    ok: bool
    key: str
    value: Any = None
    holder: int | None = None
    messages: int = 0
    route: RouteResult | None = None


class DistributedHashTable:
    """A put/get key-value service over the fault-tolerant overlay.

    Examples
    --------
    >>> dht = DistributedHashTable(DhtConfig(space_size=256, seed=3))
    >>> dht.join_many(range(0, 256, 4))
    >>> result = dht.put("language", "python", origin=0)
    >>> dht.get("language", origin=128).value
    'python'
    """

    def __init__(self, config: DhtConfig) -> None:
        self.config = config
        self.network = P2PNetwork(
            space_size=config.space_size,
            links_per_node=config.links_per_node,
            recovery=config.recovery,
            seed=config.seed,
        )
        self.space = self.network.space
        self.hasher: KeyHasher = Sha256Hasher(config.space_size)
        self.storage: dict[int, NodeStorage] = {}
        self._versions: dict[str, int] = {}
        self._random = RandomSource(seed=config.seed)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    @property
    def graph(self):
        """The underlying overlay graph."""
        return self.network.graph

    def members(self) -> list[int]:
        """Labels of all live member nodes."""
        return self.network.members()

    def join(self, address: int) -> None:
        """Add a node and transfer to it the keys it is now responsible for."""
        self.network.join(int(address))
        self.storage.setdefault(int(address), NodeStorage(owner=int(address)))
        self._transfer_keys_to(int(address))

    def join_many(self, addresses) -> None:
        """Add several nodes in order."""
        for address in addresses:
            self.join(int(address))

    def crash(self, address: int) -> None:
        """Abruptly fail a node (its stored data becomes unreachable)."""
        self.network.crash(int(address))

    def leave(self, address: int) -> None:
        """Gracefully remove a node, handing its primaries to the next closest node."""
        address = int(address)
        self.network.leave(address)
        departing_storage = self.storage.pop(address, None)
        if departing_storage is None:
            return
        for item in list(departing_storage.primary_items()):
            new_home = self.graph.closest_live_vertex(item.point)
            if new_home is None:
                continue
            self._store_at(new_home, item.key, item.value, item.point,
                           item.version, is_replica=False)

    def repair(self) -> int:
        """Run a maintenance pass: excise crashed nodes and promote replicas.

        Returns the number of keys re-homed from replicas.
        """
        for node in self.graph.nodes():
            if not node.alive:
                self.storage.pop(node.label, None)
        self.network.repair()
        rehomed = 0
        for storage in list(self.storage.values()):
            if not self.graph.is_alive(storage.owner):
                continue
            for item in list(storage.replica_items()):
                responsible = self.graph.closest_live_vertex(item.point)
                if responsible == storage.owner:
                    storage.promote_to_primary(item.key)
                    rehomed += 1
        return rehomed

    # ------------------------------------------------------------------ #
    # Key-value operations
    # ------------------------------------------------------------------ #

    def put(self, key: str, value: Any, origin: int | None = None) -> DhtOperationResult:
        """Store ``key -> value`` at the responsible node plus its replicas."""
        origin = self._resolve_origin(origin)
        point = self.hasher.hash_key(key)
        responsible = self.graph.closest_live_vertex(point)
        if responsible is None:
            return DhtOperationResult(ok=False, key=key)

        route = self.network.route(origin, responsible)
        messages = route.hops
        if not route.success:
            return DhtOperationResult(
                ok=False, key=key, messages=messages, route=route
            )

        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        self._store_at(responsible, key, value, point, version, is_replica=False)

        for replica in self.config.replication.replica_holders(
            self.graph, self.space, point, responsible
        ):
            replica_route = self.network.route(responsible, replica)
            messages += replica_route.hops
            if replica_route.success:
                self._store_at(replica, key, value, point, version, is_replica=True)

        return DhtOperationResult(
            ok=True, key=key, value=value, holder=responsible,
            messages=messages, route=route,
        )

    def get(self, key: str, origin: int | None = None) -> DhtOperationResult:
        """Look up ``key`` starting from ``origin``.

        The lookup routes to the live node closest to the key's point; if that
        node does not hold the key (e.g. the primary died before repair), the
        nearby replica holders are probed directly.
        """
        origin = self._resolve_origin(origin)
        point = self.hasher.hash_key(key)
        responsible = self.graph.closest_live_vertex(point)
        if responsible is None:
            return DhtOperationResult(ok=False, key=key)

        route = self.network.route(origin, responsible)
        messages = route.hops
        if route.success:
            item = self._read_from(responsible, key)
            if item is not None:
                return DhtOperationResult(
                    ok=True, key=key, value=item.value, holder=responsible,
                    messages=messages, route=route,
                )

        # Primary miss: probe the replica set around the key's point.
        for holder in self.config.replication.replica_holders(
            self.graph, self.space, point, responsible
        ):
            probe = self.network.route(origin, holder)
            messages += probe.hops
            if not probe.success:
                continue
            item = self._read_from(holder, key)
            if item is not None:
                return DhtOperationResult(
                    ok=True, key=key, value=item.value, holder=holder,
                    messages=messages, route=probe,
                )
        return DhtOperationResult(ok=False, key=key, messages=messages, route=route)

    def delete(self, key: str, origin: int | None = None) -> DhtOperationResult:
        """Delete ``key`` from the responsible node and its replicas."""
        origin = self._resolve_origin(origin)
        point = self.hasher.hash_key(key)
        responsible = self.graph.closest_live_vertex(point)
        if responsible is None:
            return DhtOperationResult(ok=False, key=key)
        route = self.network.route(origin, responsible)
        messages = route.hops
        if not route.success:
            return DhtOperationResult(ok=False, key=key, messages=messages, route=route)
        removed = False
        holders = [responsible] + self.config.replication.replica_holders(
            self.graph, self.space, point, responsible
        )
        for holder in holders:
            storage = self.storage.get(holder)
            if storage is not None and storage.delete(key):
                removed = True
        self._versions.pop(key, None)
        return DhtOperationResult(
            ok=removed, key=key, holder=responsible, messages=messages, route=route
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _resolve_origin(self, origin: int | None) -> int:
        members = self.members()
        if not members:
            raise RuntimeError("the DHT has no live members")
        if origin is not None and self.graph.is_alive(int(origin)):
            return int(origin)
        index = int(self._random.stream("origin").integers(0, len(members)))
        return members[index]

    def _store_at(
        self, holder: int, key: str, value: Any, point: int, version: int, is_replica: bool
    ) -> None:
        storage = self.storage.setdefault(holder, NodeStorage(owner=holder))
        storage.put(key, value, point, version=version, is_replica=is_replica)

    def _read_from(self, holder: int, key: str):
        storage = self.storage.get(holder)
        if storage is None:
            return None
        return storage.get(key)

    def _transfer_keys_to(self, newcomer: int) -> None:
        """Move primaries whose point is now closest to ``newcomer`` onto it."""
        for storage in list(self.storage.values()):
            if storage.owner == newcomer or not self.graph.is_alive(storage.owner):
                continue
            for item in list(storage.primary_items()):
                if (
                    self.space.distance(newcomer, item.point)
                    < self.space.distance(storage.owner, item.point)
                ):
                    self._store_at(
                        newcomer, item.key, item.value, item.point,
                        item.version, is_replica=False,
                    )
                    storage.delete(item.key)
