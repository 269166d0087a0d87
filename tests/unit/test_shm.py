"""Unit tests for shared-memory snapshot arenas and the per-worker cache."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.fastpath import (
    SnapshotArena,
    build_snapshot,
    cached_attach,
    snapshot_cache_clear,
    snapshot_cache_stats,
    snapshot_nbytes,
)
from repro.fastpath.delta import assert_snapshots_identical
from repro.telemetry import session as telemetry_session


@pytest.fixture(autouse=True)
def _clean_cache():
    snapshot_cache_clear()
    yield
    snapshot_cache_clear()


def _snapshot(n: int = 256, seed: int = 5):
    return build_snapshot(n, links_per_node=4, seed=seed)


class TestArenaLifecycle:
    def test_create_attach_field_identical(self):
        heap = _snapshot()
        with SnapshotArena.create(heap) as arena:
            mapper = SnapshotArena.attach(arena.spec)
            try:
                assert_snapshots_identical(mapper.snapshot(), heap, "attached")
                assert_snapshots_identical(arena.snapshot(), heap, "owner view")
            finally:
                mapper.close()

    def test_spec_is_picklable(self):
        heap = _snapshot()
        with SnapshotArena.create(heap) as arena:
            spec = pickle.loads(pickle.dumps(arena.spec))
            assert spec == arena.spec
            mapper = SnapshotArena.attach(spec)
            try:
                assert_snapshots_identical(mapper.snapshot(), heap, "pickled spec")
            finally:
                mapper.close()

    def test_views_are_read_only(self):
        with SnapshotArena.create(_snapshot()) as arena:
            shared = arena.snapshot()
            for name in ("labels", "alive", "neighbor_indptr", "neighbor_indices"):
                view = getattr(shared, name)
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0] = 1

    def test_nbytes_is_snapshot_footprint_plus_alignment(self):
        heap = _snapshot()
        with SnapshotArena.create(heap) as arena:
            footprint = snapshot_nbytes(heap)
            assert footprint <= arena.nbytes <= footprint + 64 * 8

    def test_snapshot_after_close_raises(self):
        arena = SnapshotArena.create(_snapshot())
        arena.close()
        arena.unlink()
        assert arena.closed
        with pytest.raises(ValueError, match="closed"):
            arena.snapshot()

    def test_close_and_unlink_idempotent(self):
        arena = SnapshotArena.create(_snapshot())
        arena.close()
        arena.close()
        arena.unlink()
        arena.unlink()

    def test_attach_after_unlink_raises(self):
        arena = SnapshotArena.create(_snapshot())
        spec = arena.spec
        arena.close()
        arena.unlink()
        with pytest.raises(FileNotFoundError):
            SnapshotArena.attach(spec)

    def test_exception_mid_run_leaks_no_segment(self):
        spec = None
        with pytest.raises(RuntimeError, match="mid-run"):
            with SnapshotArena.create(_snapshot()) as arena:
                spec = arena.spec
                raise RuntimeError("mid-run")
        # The context manager closed AND unlinked on the way out, so the
        # segment is gone from the OS — nothing for a tracker to clean up.
        with pytest.raises(FileNotFoundError):
            SnapshotArena.attach(spec)

    def test_mapper_exit_leaves_segment_for_owner(self):
        heap = _snapshot()
        with SnapshotArena.create(heap) as arena:
            with SnapshotArena.attach(arena.spec) as mapper:
                assert not mapper.owner
            # The mapper's exit closes its mapping but must not unlink.
            second = SnapshotArena.attach(arena.spec)
            try:
                assert_snapshots_identical(second.snapshot(), heap, "after mapper")
            finally:
                second.close()

    def test_routing_arrays_usable_from_arena(self):
        from repro.fastpath import BatchGreedyRouter

        heap = _snapshot()
        with SnapshotArena.create(heap) as arena:
            router = BatchGreedyRouter(arena.snapshot(), seed=3)
            reference = BatchGreedyRouter(heap, seed=3)
            sources = np.array([1, 2, 3], dtype=np.int64)
            targets = np.array([200, 150, 90], dtype=np.int64)
            got = router.route_batch(sources, targets)
            want = reference.route_batch(sources, targets)
            assert np.array_equal(got.success, want.success)
            assert np.array_equal(got.hops, want.hops)


class TestSnapshotCache:
    def test_attach_cached_per_segment(self):
        with SnapshotArena.create(_snapshot()) as arena:
            first = cached_attach(arena.spec)
            second = cached_attach(arena.spec)
            assert second is first
            assert snapshot_cache_stats() == {"hits": 1, "misses": 1}

    def test_distinct_segments_are_distinct_entries(self):
        heap = _snapshot()
        with SnapshotArena.create(heap) as a, SnapshotArena.create(heap) as b:
            assert cached_attach(b.spec) is not cached_attach(a.spec)
            assert snapshot_cache_stats() == {"hits": 0, "misses": 2}

    def test_cached_attach_matches_the_heap_snapshot(self):
        heap = _snapshot()
        with SnapshotArena.create(heap) as arena:
            assert_snapshots_identical(cached_attach(arena.spec).snapshot(), heap, "cache identity")

    def test_attach_reattaches_after_clear(self):
        with SnapshotArena.create(_snapshot()) as arena:
            first = cached_attach(arena.spec)
            snapshot_cache_clear()
            assert first.closed
            second = cached_attach(arena.spec)
            assert second is not first
            assert not second.closed

    def test_counters_emitted_into_telemetry(self):
        with SnapshotArena.create(_snapshot()) as arena:
            with telemetry_session() as tel:
                cached_attach(arena.spec)
                cached_attach(arena.spec)
        counters = tel.to_dict()["counters"]
        assert counters["sweep.snapshot_cache.misses"] == 1
        assert counters["sweep.snapshot_cache.hits"] == 1

    def test_arena_telemetry(self):
        with telemetry_session() as tel:
            with SnapshotArena.create(_snapshot()) as arena:
                SnapshotArena.attach(arena.spec).close()
        dump = tel.to_dict()
        assert dump["counters"]["arena.created"] == 1
        assert dump["counters"]["arena.attached"] == 1
        assert dump["gauges"]["arena.snapshot_nbytes"]["value"] == arena.nbytes

    def test_eviction_respects_capacity(self):
        from repro.fastpath import snapcache

        heap = _snapshot(64)
        arenas = [SnapshotArena.create(heap) for _ in range(snapcache.CACHE_CAPACITY + 2)]
        try:
            mapped = [cached_attach(arena.spec) for arena in arenas]
            assert len(snapcache._CACHE) == snapcache.CACHE_CAPACITY
            # The oldest entries were evicted and their mappings closed;
            # re-requesting one is a miss.
            assert mapped[0].closed and not mapped[-1].closed
            before = snapshot_cache_stats()["misses"]
            cached_attach(arenas[0].spec)
            assert snapshot_cache_stats()["misses"] == before + 1
        finally:
            for arena in arenas:
                arena.close()
                arena.unlink()
