"""repro.fastpath — array-compiled overlay and batched greedy routing.

The paper's headline numbers (Figures 5–7, Table 1) are statistics over many
thousands of routed queries; this package is the evaluation engine that makes
those populations cheap.  It has two halves:

* :mod:`repro.fastpath.snapshot` — **compile** a built overlay into an
  immutable array snapshot (CSR neighbour arrays, ring positions, alive
  bitmask);
* :mod:`repro.fastpath.batch_router` — **evaluate** thousands of
  (source, target) queries against a snapshot, one vectorized hop per step,
  with :mod:`repro.fastpath.failures` injecting node failures as bulk mask
  operations;
* :mod:`repro.fastpath.delta` — **maintain** a compiled snapshot under
  churn: a :class:`DeltaRecorder` captures join/leave/crash/repair mutations
  from the object graph and a :class:`DeltaSnapshot` applies them as
  incremental array updates (slack-capacity CSR edits, liveness mask flips,
  vectorized ring rewrites), so churn sweeps never pay a full recompile.

Coverage and the equivalence contract
-------------------------------------
The fastpath engine covers greedy routing as analysed in Sections 2 and 4 and
evaluated under node failures in Section 6 of the paper, for both the
two-sided and one-sided routing modes and **all three** Section-6 recovery
strategies (terminate, random re-route, backtracking).  Within that envelope
it is hop-for-hop identical to the scalar
:class:`~repro.core.routing.GreedyRouter` (same paths, same hop counts, same
failure verdicts, same detour draws and backtrack moves) — asserted by
``tests/property/test_property_fastpath.py``.  Byzantine behaviour and the
maintenance/DHT layers remain object-engine only, as do graphs embedded in
spaces the snapshot compiler does not support;
:class:`repro.scenarios.rounds.EngineSession` arbitrates that fallback.

The standard experimental network can additionally be built straight into a
snapshot — :func:`build_snapshot` samples every node's long links in one
batched draw and assembles the CSR arrays without materialising any
``OverlayGraph``/``OverlayNode`` objects, bit-identical to the object build
at a fixed seed.

Quickstart
----------
>>> from repro.core.builder import build_ideal_network
>>> from repro.fastpath import compile_snapshot, BatchGreedyRouter
>>> graph = build_ideal_network(1024, seed=3).graph
>>> router = BatchGreedyRouter(compile_snapshot(graph))
>>> result = router.route_batch([1, 2, 3], [900, 700, 500])
>>> bool(result.success.all())
True
"""

from __future__ import annotations

from repro.fastpath.batch_router import (
    FAILURE_CODES,
    BatchGreedyRouter,
    BatchRouteResult,
)
from repro.fastpath.builder import build_snapshot
from repro.fastpath.delta import DeltaRecorder, DeltaSnapshot, SnapshotDelta
from repro.fastpath.dtypes import (
    SNAPSHOT_CONTRACT,
    expected_snapshot_dtypes,
    indptr_dtype,
    label_dtype,
    snapshot_nbytes,
)
from repro.fastpath.failures import apply_node_failures, sample_node_failures
from repro.fastpath.shm import ArenaSpec, SnapshotArena
from repro.fastpath.snapcache import (
    cached_attach,
    cached_build_snapshot,
    snapshot_cache_clear,
    snapshot_cache_stats,
)
from repro.fastpath.snapshot import FastpathSnapshot, compile_snapshot

__all__ = [
    "FastpathSnapshot",
    "compile_snapshot",
    "build_snapshot",
    "ArenaSpec",
    "SnapshotArena",
    "cached_attach",
    "cached_build_snapshot",
    "snapshot_cache_clear",
    "snapshot_cache_stats",
    "SNAPSHOT_CONTRACT",
    "label_dtype",
    "indptr_dtype",
    "expected_snapshot_dtypes",
    "snapshot_nbytes",
    "BatchGreedyRouter",
    "BatchRouteResult",
    "FAILURE_CODES",
    "SnapshotDelta",
    "DeltaRecorder",
    "DeltaSnapshot",
    "apply_node_failures",
    "sample_node_failures",
    "ENGINES",
    "select_engine",
]

#: Engine names accepted by :class:`repro.scenarios.rounds.EngineSession`.
ENGINES = ("object", "fastpath")


def select_engine(engine: str) -> str:
    """Validate an engine request and return it.

    The batched engine implements every recovery strategy, so a valid name
    is never downgraded here.  The one remaining fallback — a graph embedded
    in a metric space the snapshot compiler does not support — is handled,
    and warned about, by :class:`repro.scenarios.rounds.EngineSession`.

    Raises
    ------
    ValueError
        If ``engine`` is not one of :data:`ENGINES`.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine
