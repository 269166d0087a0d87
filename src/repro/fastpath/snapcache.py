"""Per-process arena cache for multi-worker service drivers.

In the multi-worker service driver every routing task re-attaches the same
:class:`~repro.fastpath.shm.SnapshotArena` segment.  :func:`cached_attach`
is the per-worker memo: :meth:`~repro.fastpath.shm.SnapshotArena.attach`
keyed on the segment name, so a worker maps each arena once per process
however many tasks it executes against it.

It reports ``sweep.snapshot_cache.hits`` / ``sweep.snapshot_cache.misses``
into the active telemetry session.  Sharing a mapping is safe because an
attached arena's views are read-only.

The cache is a small FIFO (:data:`CACHE_CAPACITY` entries): million-node
snapshots are ~170 MB, so unbounded growth would trade the attach cost for
memory exhaustion.  Evicted arenas are closed (the mapping, never the
segment — the owner unlinks).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.fastpath.shm import ArenaSpec, SnapshotArena
from repro.telemetry.core import current as telemetry_current

__all__ = [
    "CACHE_CAPACITY",
    "cached_attach",
    "snapshot_cache_clear",
    "snapshot_cache_stats",
]

#: Maximum cached arenas per process.
CACHE_CAPACITY = 4

_CACHE: "OrderedDict[str, SnapshotArena]" = OrderedDict()
_STATS = {"hits": 0, "misses": 0}


def _record_hit() -> None:
    _STATS["hits"] += 1
    tel = telemetry_current()
    if tel is not None:
        tel.count("sweep.snapshot_cache.hits")


def _record_miss() -> None:
    _STATS["misses"] += 1
    tel = telemetry_current()
    if tel is not None:
        tel.count("sweep.snapshot_cache.misses")


def cached_attach(spec: ArenaSpec) -> SnapshotArena:
    """:meth:`SnapshotArena.attach`, memoized on the segment name.

    A worker process maps each arena once; later tasks against the same
    segment reuse the existing mapping.  A cached arena that was closed
    (evicted elsewhere, or by :func:`snapshot_cache_clear`) is re-attached.
    """
    cached = _CACHE.get(spec.name)
    if cached is not None:
        _CACHE.move_to_end(spec.name)
        _record_hit()
        if not cached.closed:
            return cached
        del _CACHE[spec.name]
    arena = SnapshotArena.attach(spec)
    _record_miss()
    _CACHE[spec.name] = arena
    while len(_CACHE) > CACHE_CAPACITY:
        _name, evicted = _CACHE.popitem(last=False)
        evicted.close()
    return arena


def snapshot_cache_clear() -> None:
    """Drop every cached entry, closing cached arena mappings."""
    while _CACHE:
        _name, arena = _CACHE.popitem(last=False)
        arena.close()
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def snapshot_cache_stats() -> dict[str, int]:
    """This process's lifetime cache counters (also emitted as telemetry)."""
    return dict(_STATS)
