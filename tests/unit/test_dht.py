"""Unit tests for resource location: key points, storage, replication, the DHT.

The ``TestPublishAndLookup`` and ``TestFailuresAndRepair`` cases drive the DHT
at ``replicas=0`` — one copy at the responsible node — so what they observe is
the routing layer alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

from repro.core.routing import RecoveryStrategy
from repro.dht import DistributedHashTable, NodeStorage


class TestNodeStorage:
    def test_put_get_delete(self):
        storage = NodeStorage(owner=1)
        assert storage.put("k", "v", point=10)
        assert storage.get("k").value == "v"
        assert "k" in storage
        assert storage.delete("k")
        assert storage.get("k") is None
        assert not storage.delete("k")

    def test_version_conflict_resolution(self):
        storage = NodeStorage(owner=1)
        storage.put("k", "new", point=10, version=5)
        assert not storage.put("k", "stale", point=10, version=3)
        assert storage.get("k").value == "new"
        assert storage.put("k", "newer", point=10, version=6)
        assert storage.get("k").value == "newer"

    def test_primary_and_replica_separation(self):
        storage = NodeStorage(owner=1)
        storage.put("p", 1, point=10, is_replica=False)
        storage.put("r", 2, point=20, is_replica=True)
        assert [item.key for item in storage.primary_items()] == ["p"]
        assert [item.key for item in storage.replica_items()] == ["r"]

    def test_promote_to_primary(self):
        storage = NodeStorage(owner=1)
        storage.put("r", 2, point=20, is_replica=True)
        assert storage.promote_to_primary("r")
        assert not storage.get("r").is_replica
        assert not storage.promote_to_primary("missing")


class TestKeyPoint:
    def test_point_in_range(self):
        dht = DistributedHashTable(1000)
        for key in ["a", "b", "hello", "key-123", ""]:
            assert 0 <= dht.key_point(key) < 1000

    def test_point_is_deterministic(self):
        dht = DistributedHashTable(1 << 20)
        assert dht.key_point("stable") == dht.key_point("stable")
        assert dht.key_point("stable") == DistributedHashTable(1 << 20, seed=9).key_point("stable")

    def test_points_spread_keys(self):
        dht = DistributedHashTable(1 << 16)
        points = {dht.key_point(f"key-{i}") for i in range(500)}
        # Collisions are possible but should be rare at this load factor.
        assert len(points) > 480

    def test_point_is_sha256_prefix_mod_size(self):
        # The first 16 digest bytes, big-endian, modulo the space size.
        dht = DistributedHashTable(1000)
        for key in ["a", "video.mp4", ""]:
            digest = hashlib.sha256(key.encode("utf-8")).digest()
            assert dht.key_point(key) == int.from_bytes(digest[:16], "big") % 1000

    def test_rejects_non_positive_space(self):
        for size in (0, -8):
            with pytest.raises(ValueError):
                DistributedHashTable(size)


class TestSuccessorReplication:
    def test_replicas_are_closest_nodes(self):
        dht = DistributedHashTable(64, replicas=2)
        dht.join_many(range(0, 64, 8))
        holders = dht._replica_holders(point=9, primary=8)
        assert len(holders) == 2
        assert 8 not in holders
        assert set(holders) <= {0, 16}

    def test_zero_degree(self):
        dht = DistributedHashTable(64, replicas=0)
        dht.join_many([0, 8])
        assert dht._replica_holders(4, 0) == []

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            DistributedHashTable(64, replicas=-1)


@pytest.fixture
def dht() -> DistributedHashTable:
    table = DistributedHashTable(256, seed=3)
    table.join_many(range(0, 256, 4))
    return table


def single_copy_store(space_size: int, step: int, seed: int, **options) -> DistributedHashTable:
    store = DistributedHashTable(space_size, seed=seed, replicas=0, **options)
    store.join_many(range(0, space_size, step))
    return store


@pytest.fixture
def store() -> DistributedHashTable:
    return single_copy_store(512, 8, seed=1)


class TestDistributedHashTable:
    def test_put_get_roundtrip(self, dht):
        result = dht.put("language", "python", origin=0)
        assert result.ok
        read = dht.get("language", origin=128)
        assert read.ok
        assert read.value == "python"
        assert read.holder == result.holder

    def test_get_missing_key(self, dht):
        outcome = dht.get("missing", origin=0)
        assert not outcome.ok
        assert outcome.value is None

    def test_put_overwrites(self, dht):
        dht.put("k", "v1", origin=0)
        dht.put("k", "v2", origin=4)
        assert dht.get("k", origin=8).value == "v2"

    def test_delete(self, dht):
        dht.put("k", "v", origin=0)
        assert dht.delete("k", origin=0).ok
        assert not dht.get("k", origin=0).ok
        assert not dht.delete("k", origin=0).ok

    def test_operation_reports_message_cost(self, dht):
        result = dht.put("costly", "value", origin=0)
        assert result.messages >= 0
        read = dht.get("costly", origin=200)
        assert read.messages >= 1

    def test_survives_primary_crash_with_replication(self, dht):
        put_result = dht.put("durable", "data", origin=0)
        primary = put_result.holder
        dht.crash(primary)
        read = dht.get("durable", origin=0)
        assert read.ok
        assert read.value == "data"
        assert read.holder != primary

    def test_repair_promotes_replicas(self, dht):
        put_result = dht.put("promoted", "data", origin=0)
        primary = put_result.holder
        dht.crash(primary)
        rehomed = dht.repair()
        assert rehomed >= 0
        assert dht.get("promoted", origin=0).ok

    def test_graceful_leave_hands_off_keys(self, dht):
        put_result = dht.put("handoff", "data", origin=0)
        primary = put_result.holder
        dht.leave(primary)
        read = dht.get("handoff", origin=0)
        assert read.ok
        assert read.value == "data"

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_leave_hands_off_replicas(self, replicas):
        # Every replica holder leaves gracefully, then the primary crashes:
        # the departures must have passed their copies on.
        for seed in range(8):
            table = DistributedHashTable(256, seed=seed, replicas=replicas)
            table.join_many(range(0, 256, 8))
            primary = table.put("k", "v").holder
            holders = [
                label for label, storage in table.storage.items()
                if "k" in storage and label != primary
            ]
            assert len(holders) == replicas
            for holder in holders:
                table.leave(holder)
            table.crash(primary)
            assert table.get("k").value == "v", f"seed {seed}"

    def test_join_transfers_responsibility(self, dht):
        put_result = dht.put("transfer", "data", origin=0)
        point = dht.key_point("transfer")
        if not dht.graph.has_node(point):
            dht.join(point)
            assert "transfer" in dht.storage[point]
            assert "transfer" not in dht.storage[put_result.holder]
            read = dht.get("transfer", origin=0)
            assert read.ok
            assert read.holder == point

    def test_many_keys(self, dht):
        for index in range(50):
            assert dht.put(f"key-{index}", index, origin=0).ok
        for index in range(50):
            assert dht.get(f"key-{index}", origin=100).value == index

    def test_empty_dht_raises(self):
        empty = DistributedHashTable(64, seed=0)
        with pytest.raises(RuntimeError):
            empty.put("k", "v")
        with pytest.raises(RuntimeError):
            empty.get("k")

    def test_constructor_defaults(self):
        dht = DistributedHashTable(1024)
        assert dht.links_per_node == 10
        assert dht.replicas == 2
        assert dht.recovery is RecoveryStrategy.BACKTRACK
        with pytest.raises(ValueError):
            DistributedHashTable(0)

    def test_leave_unknown_raises(self, dht):
        with pytest.raises(ValueError):
            dht.leave(3)


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
        # No replica holders to probe: the miss costs the one route.
        assert outcome.messages == outcome.route.hops

    def test_publish_routes_to_closest_node(self, store):
        holder = store.put("doc", 1, origin=0).holder
        point = store.key_point("doc")
        assert holder == store.graph.closest_live_vertex(point)

    def test_lookup_random_origin(self, store):
        store.put("k", "v", origin=0)
        assert store.get("k").ok

    def test_stored_keys(self, store):
        holder = store.put("a-key", 3, origin=0).holder
        assert "a-key" in store.storage[holder]
        assert sum("a-key" in node for node in store.storage.values()) == 1

    def test_lookup_reports_messages(self, store):
        store.put("x", 1, origin=0)
        outcome = store.get("x", origin=256)
        assert outcome.messages >= 1
        # One copy, found at the responsible node: the cost is that one route.
        assert outcome.messages == outcome.route.hops

    def test_rebalance_on_join(self, store):
        holder = store.put("rebalance-me", 9, origin=0).holder
        point = store.key_point("rebalance-me")
        # Join a node exactly at the key's point: it must take over the key.
        if not store.graph.has_node(point):
            store.join(point)
            assert "rebalance-me" in store.storage[point]
            assert "rebalance-me" not in store.storage[holder]
            assert sum("rebalance-me" in node for node in store.storage.values()) == 1

    def test_join_many_transfers_responsibility(self, store):
        keys = [f"item-{index}" for index in range(20)]
        for key in keys:
            store.put(key, key, origin=0)
        newcomers = {store.key_point(key) for key in keys} - set(store.members())
        store.join_many(sorted(newcomers))
        for key in keys:
            point = store.key_point(key)
            holders = [label for label, node in store.storage.items() if key in node]
            assert holders == [store.graph.closest_live_vertex(point)]


class TestFailuresAndRepair:
    def test_lookup_survives_crashes_of_other_nodes(self, store):
        holder = store.put("persistent", 1, origin=0).holder
        victim = next(label for label in store.members() if label not in (holder, 0))
        store.crash(victim)
        assert store.get("persistent", origin=0).ok

    def test_empty_network_operations_raise(self, store):
        # Every member crashed, none excised yet: no live origin remains.
        for label in store.members():
            store.crash(label)
        with pytest.raises(RuntimeError):
            store.put("k", 1)
        with pytest.raises(RuntimeError):
            store.get("k")
        with pytest.raises(RuntimeError):
            store.delete("k")

    def test_recovery_strategy_configurable(self):
        store = single_copy_store(128, 4, seed=2, recovery=RecoveryStrategy.TERMINATE)
        assert store.recovery is RecoveryStrategy.TERMINATE
        store.put("k", 1, origin=0)
        assert store.get("k", origin=64).ok


# sha256 of examples/quickstart.py's stdout without its ``traffic counters:``
# line: the holders, hops and found/not-found of every put and get, healthy
# and under 30 % crashes.
QUICKSTART_DIGEST = "8301de70e5be92601070e2831eaaa7cff396b9ac1107b1d376eb6b5e7fdd77fd"


def test_quickstart_output_is_pinned():
    example = Path(__file__).parents[2] / "examples" / "quickstart.py"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(example), run_name="__main__")
    lines = [
        line for line in stdout.getvalue().splitlines()
        if not line.startswith("traffic counters:")
    ]
    digest = hashlib.sha256("\n".join(lines).rstrip().encode()).hexdigest()
    assert digest == QUICKSTART_DIGEST
