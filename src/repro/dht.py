"""Resource location: a distributed hash table built on the fault-tolerant overlay.

The paper motivates its overlay as providing "hash table-like functionality"
(Section 1) but evaluates only the routing layer.  :class:`DistributedHashTable`
is the missing application layer: a :class:`~repro.core.network.P2PNetwork`
(membership, maintenance, greedy routing) with per-node storage.

* **Keys.**  Section 2 assumes a hash ``h : K -> V`` that populates the
  space evenly; :meth:`~DistributedHashTable.key_point` is SHA-256 modulo the
  space size.  A key lives at the live node closest to its point.
* **Replication.**  Each key is also stored at the ``replicas`` live nodes
  next closest to its point (Chord's successor lists): the nodes that become
  responsible if the primary fails, so a crash does not lose the key.
* **Cost.**  Every operation is routed from a caller-chosen origin, and its
  message cost is reported in :attr:`DhtOperationResult.messages`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.network import P2PNetwork
from repro.core.routing import RecoveryStrategy, RouteResult
from repro.util.rng import RandomSource

__all__ = ["DhtOperationResult", "DistributedHashTable", "NodeStorage", "StoredItem"]


@dataclass
class StoredItem:
    """One stored key-value pair.

    Attributes
    ----------
    key:
        The resource key.
    value:
        The stored payload.
    point:
        The metric-space point the key hashes to.
    version:
        Monotonically increasing per-key version; puts with an older version
        are ignored so that delayed replication traffic cannot resurrect stale
        data.
    is_replica:
        ``True`` when this copy is held for fault tolerance rather than
        because this node is the key's responsible node.
    """

    key: str
    value: Any
    point: int
    version: int = 0
    is_replica: bool = False


class NodeStorage:
    """The key-value store kept by a single DHT node."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._items: dict[str, StoredItem] = {}

    def put(
        self,
        key: str,
        value: Any,
        point: int,
        version: int = 0,
        is_replica: bool = False,
    ) -> bool:
        """Store ``key`` unless a strictly newer version is already present.

        Returns ``True`` when the write was applied.
        """
        existing = self._items.get(key)
        if existing is not None and existing.version > version:
            return False
        self._items[key] = StoredItem(
            key=key, value=value, point=point, version=version, is_replica=is_replica
        )
        return True

    def get(self, key: str) -> StoredItem | None:
        """Return the stored item for ``key``, or ``None``."""
        return self._items.get(key)

    def delete(self, key: str) -> bool:
        """Remove ``key``; return whether it was present."""
        return self._items.pop(key, None) is not None

    def primary_items(self) -> Iterator[StoredItem]:
        """Iterate over items for which this node is the responsible node."""
        return (item for item in self._items.values() if not item.is_replica)

    def replica_items(self) -> Iterator[StoredItem]:
        """Iterate over items held only as replicas."""
        return (item for item in self._items.values() if item.is_replica)

    def promote_to_primary(self, key: str) -> bool:
        """Mark a replica as primary (after the original responsible node died)."""
        item = self._items.get(key)
        if item is None:
            return False
        item.is_replica = False
        return True

    def __contains__(self, key: str) -> bool:
        return key in self._items


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


class DistributedHashTable(P2PNetwork):
    """A put/get key-value service: a :class:`P2PNetwork` with storage.

    Parameters
    ----------
    space_size, links_per_node, recovery, seed:
        As for :class:`~repro.core.network.P2PNetwork`.
    replicas:
        Copies of each key kept in addition to the primary (default 2).

    Examples
    --------
    >>> dht = DistributedHashTable(space_size=256, seed=3)
    >>> dht.join_many(range(0, 256, 4))
    >>> result = dht.put("language", "python", origin=0)
    >>> dht.get("language", origin=128).value
    'python'
    """

    def __init__(
        self,
        space_size: int,
        links_per_node: int | None = None,
        recovery: RecoveryStrategy = RecoveryStrategy.BACKTRACK,
        seed: int = 0,
        *,
        replicas: int = 2,
    ) -> None:
        if replicas < 0:
            raise ValueError(f"replicas must be non-negative, got {replicas}")
        super().__init__(space_size, links_per_node, recovery, seed=seed)
        self.replicas = replicas
        self.storage: dict[int, NodeStorage] = {}
        self._versions: dict[str, int] = {}
        self._random = RandomSource(seed=seed)

    def key_point(self, key: str) -> int:
        """Map ``key`` to its point in ``[0, space_size)`` (SHA-256, mod the size)."""
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "big") % self.space.size()

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def join(self, address: int) -> None:
        """Add a node and transfer to it the keys it is now responsible for."""
        super().join(address)
        address = int(address)
        self.storage.setdefault(address, NodeStorage(owner=address))
        self._transfer_keys_to(address)

    def leave(self, address: int) -> None:
        """Gracefully remove a node, handing off its primaries and its replicas.

        Each primary moves to the live node now closest to its point; each
        replica moves to the first replica holder of that node which lacks
        the key, so a replica holder's departure keeps the key's replication.
        """
        address = int(address)
        super().leave(address)
        departing_storage = self.storage.pop(address, None)
        if departing_storage is None:
            return
        for item in list(departing_storage.primary_items()):
            new_home = self.graph.closest_live_vertex(item.point)
            if new_home is None:
                continue
            self._store_at(new_home, item.key, item.value, item.point,
                           item.version, is_replica=False)
        for item in list(departing_storage.replica_items()):
            primary = self.graph.closest_live_vertex(item.point)
            if primary is None:
                continue
            for holder in self._replica_holders(item.point, primary):
                if self._read_from(holder, item.key) is None:
                    self._store_at(holder, item.key, item.value, item.point,
                                   item.version, is_replica=True)
                    break

    def repair(self) -> int:  # type: ignore[override]
        """Run a maintenance pass: excise crashed nodes and promote replicas.

        Returns the number of keys re-homed from replicas.
        """
        for node in self.graph.nodes():
            if not node.alive:
                self.storage.pop(node.label, None)
        super().repair()
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
        point = self.key_point(key)
        responsible = self.graph.closest_live_vertex(point)
        if responsible is None:
            return DhtOperationResult(ok=False, key=key)

        route = self.route(origin, responsible)
        messages = route.hops
        if not route.success:
            return DhtOperationResult(ok=False, key=key, messages=messages, route=route)

        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        self._store_at(responsible, key, value, point, version, is_replica=False)

        for replica in self._replica_holders(point, responsible):
            replica_route = self.route(responsible, replica)
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
        point = self.key_point(key)
        responsible = self.graph.closest_live_vertex(point)
        if responsible is None:
            return DhtOperationResult(ok=False, key=key)

        route = self.route(origin, responsible)
        messages = route.hops
        if route.success:
            item = self._read_from(responsible, key)
            if item is not None:
                return DhtOperationResult(
                    ok=True, key=key, value=item.value, holder=responsible,
                    messages=messages, route=route,
                )

        # Primary miss: probe the replica set around the key's point.
        for holder in self._replica_holders(point, responsible):
            probe = self.route(origin, holder)
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
        point = self.key_point(key)
        responsible = self.graph.closest_live_vertex(point)
        if responsible is None:
            return DhtOperationResult(ok=False, key=key)
        route = self.route(origin, responsible)
        messages = route.hops
        if not route.success:
            return DhtOperationResult(ok=False, key=key, messages=messages, route=route)
        removed = False
        for holder in [responsible] + self._replica_holders(point, responsible):
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

    def _replica_holders(self, point: int, primary: int) -> list[int]:
        """The ``replicas`` live members other than ``primary`` closest to ``point``."""
        if self.replicas == 0:
            return []
        live = [label for label in self.members() if label != primary]
        live.sort(key=lambda label: self.space.distance(label, point))
        return live[: self.replicas]

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

    def _read_from(self, holder: int, key: str) -> StoredItem | None:
        storage = self.storage.get(holder)
        return None if storage is None else storage.get(key)

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
