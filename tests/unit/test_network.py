"""Unit tests for the P2PNetwork facade, and for resource location over it.

``P2PNetwork`` is membership, maintenance and routing; publishing and looking
up resources is ``DistributedHashTable``, which composes one.  The store
tests below drive the DHT at replication degree 0 — one copy at the
responsible node, the configuration the facade's own ``publish``/``lookup``
used to implement — and keep the names they had then.
"""

from __future__ import annotations

import pytest

from repro.core.network import P2PNetwork
from repro.core.routing import RecoveryStrategy
from repro.dht import DhtConfig, DistributedHashTable, SuccessorReplication


@pytest.fixture
def network() -> P2PNetwork:
    net = P2PNetwork(space_size=512, seed=1)
    net.join_many(list(range(0, 512, 8)))
    return net


def single_copy_store(space_size: int, step: int, seed: int, **config) -> DistributedHashTable:
    store = DistributedHashTable(
        DhtConfig(space_size=space_size, seed=seed,
                  replication=SuccessorReplication(degree=0), **config)
    )
    store.join_many(range(0, space_size, step))
    return store


@pytest.fixture
def store() -> DistributedHashTable:
    return single_copy_store(512, 8, seed=1)


class TestMembership:
    def test_join_many(self, network):
        assert len(network.members()) == 64

    def test_join_duplicate_rejected(self, network):
        with pytest.raises(ValueError):
            network.join(0)

    def test_join_out_of_space_rejected(self, network):
        with pytest.raises(ValueError):
            network.join(1000)

    def test_leave_removes_member(self, network):
        network.leave(8)
        assert 8 not in network.members()

    def test_leave_unknown_rejected(self, network):
        with pytest.raises(ValueError):
            network.leave(3)

    def test_crash_marks_dead(self, network):
        network.crash(16)
        assert 16 not in network.members()
        assert network.graph.has_node(16)

    def test_statistics_counters(self, network):
        network.crash(16)
        network.leave(24)
        assert network.statistics.crashes == 1
        assert network.statistics.leaves == 1
        assert network.statistics.joins == 64
        assert isinstance(network.statistics.as_dict(), dict)


class TestPublishAndLookup:
    def test_publish_then_lookup(self, store):
        published = store.put("video.mp4", b"data", origin=0)
        assert published.ok
        outcome = store.get("video.mp4", origin=256)
        assert outcome.ok
        assert outcome.value == b"data"
        assert outcome.holder == published.holder

    def test_lookup_missing_key(self, store):
        outcome = store.get("never-published", origin=0)
        assert not outcome.ok
        assert outcome.value is None

    def test_publish_routes_to_closest_node(self, store):
        holder = store.put("doc", 1, origin=0).holder
        point = store.hasher.hash_key("doc")
        assert holder == store.graph.closest_live_vertex(point)

    def test_lookup_random_origin(self, store):
        store.put("k", "v", origin=0)
        assert store.get("k").ok

    def test_stored_keys(self, store):
        holder = store.put("a-key", 3, origin=0).holder
        assert "a-key" in store.storage[holder]
        assert sum("a-key" in node for node in store.storage.values()) == 1

    def test_lookup_counts_statistics(self, store):
        store.put("x", 1, origin=0)
        before = store.network.statistics.routing_messages
        outcome = store.get("x", origin=256)
        assert outcome.messages >= 1
        assert store.network.statistics.routing_messages == before + outcome.messages

    def test_rebalance_on_join(self, store):
        holder = store.put("rebalance-me", 9, origin=0).holder
        point = store.hasher.hash_key("rebalance-me")
        # Join a node exactly at the key's point: it must take over the key.
        if not store.graph.has_node(point):
            store.join(point)
            assert "rebalance-me" in store.storage[point]
            assert "rebalance-me" not in store.storage[holder] or holder == point


class TestFailuresAndRepair:
    def test_lookup_survives_crashes_of_other_nodes(self, store):
        holder = store.put("persistent", 1, origin=0).holder
        victim = next(label for label in store.members() if label not in (holder, 0))
        store.crash(victim)
        assert store.get("persistent", origin=0).ok

    def test_repair_removes_crashed_nodes(self, network):
        network.crash(16)
        network.repair()
        assert not network.graph.has_node(16)
        # The network remains routable after repair.
        assert network.route(0, 256).success

    def test_empty_network_operations_raise(self):
        empty = DistributedHashTable(DhtConfig(space_size=64, seed=0))
        with pytest.raises(RuntimeError):
            empty.put("k", 1)
        with pytest.raises(RuntimeError):
            empty.get("k")

    def test_recovery_strategy_configurable(self):
        store = single_copy_store(128, 4, seed=2, recovery=RecoveryStrategy.TERMINATE)
        assert store.network.recovery is RecoveryStrategy.TERMINATE
        store.put("k", 1, origin=0)
        assert store.get("k", origin=64).ok
