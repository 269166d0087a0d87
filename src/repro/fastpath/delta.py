"""Incremental snapshot deltas: churn without full recompiles.

The batch engine (PRs 1/3/4) routes over frozen :class:`FastpathSnapshot`
arrays, so every maintenance or churn experiment used to pay a full O(n)
Python recompile per event batch — exactly the cost the paper argues random
overlays avoid ("most random structures require less work to maintain their
much weaker invariants").  This module makes the *repair path* array-native:

* :class:`SnapshotDelta` — an ordered batch of overlay mutations
  (join/leave/crash/repair expressed as node, liveness, ring-pointer, and
  long-link operations);
* :class:`DeltaRecorder` — an observer attached to an
  :class:`~repro.core.graph.OverlayGraph` (every mutation the construction
  heuristic, failure models, and maintenance daemon perform) or to a table
  overlay (:class:`~repro.overlay.mixin.OverlayMixin`'s liveness flips and
  bulk rebuilds);
* :class:`DeltaSnapshot` — a mutable, array-backed mirror of the overlay
  that applies deltas with slack-capacity CSR slabs (edge insertions land in
  per-node spare slots; periodic compaction reclaims orphaned rows), flips
  liveness as mask updates, rewrites ring pointers as vectorized scatters,
  and :meth:`~DeltaSnapshot.snapshot`\\ s back into a frozen
  :class:`FastpathSnapshot` on demand.

Parity contract
---------------
After applying any recorded event sequence, ``delta.snapshot()`` is
**field-identical** to a fresh ``compile_snapshot(graph)`` of the mutated
object graph: same labels, same alive mask, same CSR arrays entry for entry
(the per-row section order — short links, long links in creation order, then
deduplicated incoming links — is maintained incrementally).  The contract is
property-tested across randomized join/leave/crash/repair sequences in
``tests/property/test_property_delta.py``, for the paper's own overlay and —
via the liveness tier — for every baseline Overlay protocol.

Two tiers
---------
* **Structural tier** (:meth:`DeltaSnapshot.from_graph`) — for
  :class:`~repro.core.graph.OverlayGraph`-backed overlays on a ring (the
  paper's networks): supports the full event vocabulary.
* **Liveness tier** (:meth:`DeltaSnapshot.from_snapshot` /
  :meth:`DeltaSnapshot.from_overlay`) — for *any* compiled snapshot,
  including the baseline protocol overlays (Chord, CAN, Kleinberg,
  Plaxton): crash/revive flips, per-edge liveness flips
  (``OP_LINK_FAIL``/``OP_LINK_REVIVE`` applied as mask scatters onto the
  CSR validity arrays), and — when constructed :meth:`from_overlay` — bulk
  table rebuilds (``OP_REBUILD``, e.g. Chord's ``stabilize``) expressed as
  one recompile delta op instead of an out-of-band recompile.

Per-*link* failure flips (``LinkFailureModel``, fault schedules) are part of
the vocabulary since PR 8: the structural tier tracks every link's alive
flag in its slabs, and the liveness tier scatters them onto an
``edge_alive`` mask, so link-failure experiments batch exactly like node
churn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.fastpath.dtypes import label_dtype, narrow_indptr, narrow_labels
from repro.fastpath.snapshot import FastpathSnapshot
from repro.telemetry.core import current as telemetry_current

if TYPE_CHECKING:
    from repro.overlay.mixin import OverlayMixin

__all__ = [
    "SnapshotDelta",
    "DeltaRecorder",
    "DeltaSnapshot",
    "HalfAppliedDeltaError",
    "assert_snapshots_identical",
]


def assert_snapshots_identical(
    actual: FastpathSnapshot, expected: FastpathSnapshot, context: str = ""
) -> None:
    """Assert the delta layer's parity contract: field identity.

    Every scalar field and every array of ``actual`` must equal the
    corresponding field of ``expected`` (values *and* dtypes).  Used by the
    property tests and ``bench/`` to pin delta-updated and arena-mapped
    snapshots against fresh compiles.
    """
    prefix = f"{context}: " if context else ""
    if actual.kind != expected.kind:
        raise AssertionError(f"{prefix}kind {actual.kind!r} != {expected.kind!r}")
    if actual.space_size != expected.space_size:
        raise AssertionError(
            f"{prefix}space_size {actual.space_size} != {expected.space_size}"
        )
    if actual.symmetric_neighbors != expected.symmetric_neighbors:
        raise AssertionError(f"{prefix}symmetric_neighbors flags differ")
    if actual.policy != expected.policy:
        raise AssertionError(f"{prefix}policies differ")
    for name in ("labels", "alive", "neighbor_indptr", "neighbor_indices"):
        left = getattr(actual, name)
        right = getattr(expected, name)
        if left.dtype != right.dtype:
            raise AssertionError(
                f"{prefix}{name} dtype {left.dtype} != {right.dtype}"
            )
        if not np.array_equal(left, right):
            raise AssertionError(f"{prefix}{name} arrays differ")
    if (expected.edge_class is None) != (actual.edge_class is None) or (
        expected.edge_class is not None
        and not np.array_equal(actual.edge_class, expected.edge_class)
    ):
        raise AssertionError(f"{prefix}edge_class differs")
    if (expected.edge_alive is None) != (actual.edge_alive is None) or (
        expected.edge_alive is not None
        and (
            actual.edge_alive.dtype != expected.edge_alive.dtype
            or not np.array_equal(actual.edge_alive, expected.edge_alive)
        )
    ):
        raise AssertionError(f"{prefix}edge_alive differs")


# Op codes (first tuple element of every recorded operation).
OP_ADD_NODE = 0  # (op, label)
OP_REMOVE_NODE = 1  # (op, label)
OP_FAIL = 2  # (op, label)
OP_REVIVE = 3  # (op, label)
OP_SET_RING = 4  # (op, label, left, right)   (-1 encodes None)
OP_ADD_LINK = 5  # (op, source, target)
OP_REMOVE_LINK = 6  # (op, source, target)
OP_REDIRECT_LINK = 7  # (op, source, old_target, new_target)
OP_LINK_FAIL = 8  # (op, holder, target)
OP_LINK_REVIVE = 9  # (op, holder, target)
OP_REBUILD = 10  # (op,)   — bulk table rebuild (e.g. Chord stabilize)

_LIVENESS_OPS = frozenset({OP_FAIL, OP_REVIVE})

_OP_NAMES = {
    OP_ADD_NODE: "add_node",
    OP_REMOVE_NODE: "remove_node",
    OP_FAIL: "fail",
    OP_REVIVE: "revive",
    OP_SET_RING: "set_ring",
    OP_ADD_LINK: "add_link",
    OP_REMOVE_LINK: "remove_link",
    OP_REDIRECT_LINK: "redirect_link",
    OP_LINK_FAIL: "link_fail",
    OP_LINK_REVIVE: "link_revive",
    OP_REBUILD: "rebuild",
}


class HalfAppliedDeltaError(RuntimeError):
    """A structural-tier mirror refused an op after applying part of its delta."""


@dataclass
class SnapshotDelta:
    """An ordered batch of overlay mutations.

    Operations are plain tuples (op code first) in the exact order the object
    graph performed them — order matters when one row is touched repeatedly
    within a batch.  A delta whose every op is a liveness flip can be applied
    to a snapshot without touching the adjacency arrays at all, which is what
    lets the batch router keep its dense matrices across crash-only rounds.
    """

    ops: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def counts(self) -> dict[str, int]:
        """Per-kind op counts, for logs and benchmark reports."""
        summary: dict[str, int] = {}
        for op in self.ops:
            name = _OP_NAMES[op[0]]
            summary[name] = summary.get(name, 0) + 1
        return summary


class DeltaRecorder:
    """Observer that turns an overlay's mutations into a delta.

    Attach with :meth:`attach` *before* the events you want to capture;
    every construction, failure-injection, and maintenance call that goes
    through the mutator methods of the :class:`OverlayGraph` or table
    overlay is recorded, whoever makes it.  :meth:`drain` hands back the
    accumulated :class:`SnapshotDelta` and starts a fresh batch, so a churn
    loop records one delta per round.
    """

    def __init__(self, graph: "OverlayGraph | OverlayMixin") -> None:
        self.graph = graph
        self._ops: list[tuple] = []

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def attach(cls, graph: "OverlayGraph | OverlayMixin") -> "DeltaRecorder":
        """Create a recorder and register it as the overlay's observer.

        Raises
        ------
        ValueError
            If the overlay already has an observer attached.
        """
        recorder = cls(graph)
        graph.set_observer(recorder)
        return recorder

    def detach(self) -> None:
        """Unregister from the graph (recorded ops are kept until drained)."""
        if self.graph.observer is self:
            self.graph.set_observer(None)

    def drain(self) -> SnapshotDelta:
        """Return the mutations recorded since the last drain, then reset."""
        delta = SnapshotDelta(ops=self._ops)
        self._ops = []
        return delta

    def __len__(self) -> int:
        return len(self._ops)

    # -- observer interface (called by the overlay's mutators) ---------------

    def on_add_node(self, label: int) -> None:
        self._ops.append((OP_ADD_NODE, label))

    def on_remove_node(self, label: int) -> None:
        self._ops.append((OP_REMOVE_NODE, label))

    def on_fail_node(self, label: int) -> None:
        self._ops.append((OP_FAIL, label))

    def on_revive_node(self, label: int) -> None:
        self._ops.append((OP_REVIVE, label))

    def on_set_immediate_neighbors(
        self, label: int, left: int | None, right: int | None
    ) -> None:
        self._ops.append(
            (OP_SET_RING, label, -1 if left is None else left, -1 if right is None else right)
        )

    def on_add_long_link(self, source: int, target: int) -> None:
        self._ops.append((OP_ADD_LINK, source, target))

    def on_remove_long_link(self, source: int, target: int, alive: bool) -> None:
        self._ops.append((OP_REMOVE_LINK, source, target))

    def on_redirect_long_link(self, source: int, old_target: int, new_target: int) -> None:
        self._ops.append((OP_REDIRECT_LINK, source, old_target, new_target))

    def on_fail_long_link(self, source: int, target: int) -> None:
        self._ops.append((OP_LINK_FAIL, source, target))

    def on_revive_long_link(self, source: int, target: int) -> None:
        self._ops.append((OP_LINK_REVIVE, source, target))

    def on_rebuild(self) -> None:
        self._ops.append((OP_REBUILD,))


class _Slab:
    """Per-node variable-length integer rows with slack capacity.

    A CSR-with-spare-slots store: row ``i`` owns ``caps[i]`` contiguous slots
    of ``data`` starting at ``offsets[i]``, of which the first ``counts[i]``
    are live.  Appends land in the spare slots; a full row is relocated to
    the tail with doubled capacity (the old slots become garbage), and when
    garbage exceeds half the live payload the slab compacts itself — the
    "periodic compaction" half of the insertion strategy.

    Every entry carries a parallel boolean *flag* — the link's alive bit.
    Rows keep dead entries in place (so link revival restores the original
    slot order); :meth:`gather` filters to flag-``True`` entries, which is
    what makes the materialized rows match a fresh compile's
    live-links-only adjacency.

    The bookkeeping vectors are plain Python lists: the slab's mutation path
    is executed once per recorded op, and list indexing is several times
    cheaper than NumPy scalar access; only the payload lives in flat NumPy
    arrays, which is what the vectorized materialization gathers from.
    """

    __slots__ = ("offsets", "counts", "caps", "data", "flags", "_tail", "_orphaned")

    #: Spare slots granted to every row at build/compaction time.
    SLACK = 4

    def __init__(
        self,
        rows: list[list[int]],
        row_flags: list[list[bool]] | None = None,
        dtype: np.dtype | type = np.int64,
    ) -> None:
        n = len(rows)
        counts = [len(row) for row in rows]
        caps = [count + self.SLACK for count in counts]
        offsets = [0] * n
        running = 0
        for i in range(n):
            offsets[i] = running
            running += caps[i]
        # The payload dtype is the caller's contract (label_dtype for mirror
        # slabs); relocation and compaction inherit it instead of silently
        # re-widening to int64.
        data = np.zeros(running + max(64, running // 4), dtype=dtype)
        flags = np.ones(data.size, dtype=bool)
        for i, row in enumerate(rows):
            if row:
                data[offsets[i] : offsets[i] + len(row)] = row
                if row_flags is not None:
                    flags[offsets[i] : offsets[i] + len(row)] = row_flags[i]
        self.offsets = offsets
        self.counts = counts
        self.caps = caps
        self.data = data
        self.flags = flags
        self._tail = running
        self._orphaned = 0

    # -- queries -------------------------------------------------------------

    def row(self, i: int) -> np.ndarray:
        """All entries of row ``i``, dead included (a view; do not mutate)."""
        off = self.offsets[i]
        return self.data[off : off + self.counts[i]]

    def row_flags(self, i: int) -> np.ndarray:
        """The alive flags of row ``i``, parallel to :meth:`row`."""
        off = self.offsets[i]
        return self.flags[off : off + self.counts[i]]

    def gather(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten the *live* rows of ``labels`` into (values, flat row ids, counts).

        Dead-flagged entries are skipped, so the gathered rows equal what
        ``compile_snapshot`` emits for the mirrored overlay.
        """
        counts = np.fromiter(
            (self.counts[label] for label in labels), dtype=np.int64, count=labels.size
        )
        offsets = np.fromiter(
            (self.offsets[label] for label in labels), dtype=np.int64, count=labels.size
        )
        rows = np.repeat(np.arange(labels.size, dtype=np.int64), counts)
        positions = np.repeat(offsets, counts) + _within(counts)
        live = self.flags[positions]
        rows = rows[live]
        counts = np.bincount(rows, minlength=labels.size).astype(np.int64)
        return self.data[positions[live]], rows, counts

    # -- mutations -----------------------------------------------------------

    def append(self, i: int, value: int, alive: bool = True) -> None:
        """Append ``value`` to row ``i``, relocating the row when full."""
        count = self.counts[i]
        if count == self.caps[i]:
            self._relocate(i, count)
        slot = self.offsets[i] + count
        self.data[slot] = value
        self.flags[slot] = alive
        self.counts[i] = count + 1

    def remove_first(self, i: int, value: int, want: bool | None = None) -> bool:
        """Remove the first occurrence of ``value`` from row ``i``; return its flag.

        ``want`` restricts the match to entries whose flag equals it
        (``None`` matches any flag) — link removal must drop the entry in the
        same liveness state on both slab sides to keep them paired.

        Raises
        ------
        ValueError
            If no matching entry is present — the mirror has diverged from
            the graph, which is always a bug worth failing loudly on.
        """
        off = self.offsets[i]
        count = self.counts[i]
        seg = self.data[off : off + count]
        fseg = self.flags[off : off + count]
        pos = self._find(seg, fseg, value, want, i)
        flag = bool(fseg[pos])
        seg[pos : count - 1] = seg[pos + 1 : count]
        fseg[pos : count - 1] = fseg[pos + 1 : count]
        self.counts[i] = count - 1
        return flag

    def remove_all(self, i: int, value: int) -> int:
        """Remove every occurrence of ``value`` from row ``i``; return the count."""
        off = self.offsets[i]
        count = self.counts[i]
        seg = self.data[off : off + count]
        keep = seg != value
        kept = seg[keep]
        removed = count - kept.size
        if removed:
            self.data[off : off + kept.size] = kept
            self.flags[off : off + kept.size] = self.flags[off : off + count][keep]
            self.counts[i] = int(kept.size)
        return removed

    def replace_first(self, i: int, old: int, new: int) -> None:
        """Replace the first *live* occurrence of ``old`` in row ``i`` with ``new``."""
        off = self.offsets[i]
        count = self.counts[i]
        seg = self.data[off : off + count]
        fseg = self.flags[off : off + count]
        pos = self._find(seg, fseg, old, True, i)
        seg[pos] = new

    def set_flag_first(self, i: int, value: int, want: bool, new: bool) -> None:
        """Flip the flag of the first occurrence of ``value`` with flag ``want``."""
        off = self.offsets[i]
        count = self.counts[i]
        seg = self.data[off : off + count]
        fseg = self.flags[off : off + count]
        pos = self._find(seg, fseg, value, want, i)
        fseg[pos] = new

    def clear_row(self, i: int) -> None:
        """Empty row ``i`` (its capacity stays reserved for reuse)."""
        self.counts[i] = 0

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _find(
        seg: np.ndarray, fseg: np.ndarray, value: int, want: bool | None, i: int
    ) -> int:
        """First position of ``value`` (with flag ``want`` unless ``None``)."""
        if want is None:
            hits = np.flatnonzero(seg == value)
        else:
            hits = np.flatnonzero((seg == value) & (fseg == want))
        if not hits.size:
            raise ValueError(
                f"slab row {i} has no entry {value}"
                f"{'' if want is None else f' with alive={want}'}; "
                "delta mirror diverged"
            )
        return int(hits[0])

    def _relocate(self, i: int, count: int) -> None:
        """Move a full row to the tail with doubled capacity."""
        new_cap = max(2 * count, count + self.SLACK)
        if self._tail + new_cap > self.data.size:
            size = max(2 * self.data.size, self._tail + new_cap + 64)
            grown = np.zeros(size, dtype=self.data.dtype)
            grown[: self._tail] = self.data[: self._tail]
            grown_flags = np.ones(size, dtype=bool)
            grown_flags[: self._tail] = self.flags[: self._tail]
            self.data = grown
            self.flags = grown_flags
        old_off = self.offsets[i]
        self.data[self._tail : self._tail + count] = self.data[old_off : old_off + count]
        self.flags[self._tail : self._tail + count] = self.flags[old_off : old_off + count]
        self.offsets[i] = self._tail
        self._orphaned += self.caps[i]
        self.caps[i] = new_cap
        self._tail += new_cap
        if self._orphaned * 2 > self._tail - self._orphaned:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the slab contiguously with fresh slack everywhere."""
        # repro: allow[RPR005] — rare compaction; _Slab wants list-of-lists
        rows = [self.row(i).tolist() for i in range(len(self.counts))]
        # repro: allow[RPR005] — rare compaction; _Slab wants list-of-lists
        row_flags = [self.row_flags(i).tolist() for i in range(len(self.counts))]
        rebuilt = _Slab(rows, row_flags, dtype=self.data.dtype)
        self.offsets = rebuilt.offsets
        self.counts = rebuilt.counts
        self.caps = rebuilt.caps
        self.data = rebuilt.data
        self.flags = rebuilt.flags
        self._tail = rebuilt._tail
        self._orphaned = 0


class DeltaSnapshot:
    """A mutable, array-backed overlay mirror that snapshots on demand.

    Create with :meth:`from_graph` (structural tier: full churn vocabulary)
    or :meth:`from_snapshot` (liveness tier: crash/revive on any compiled
    overlay).  Apply recorded :class:`SnapshotDelta` batches with
    :meth:`apply`, then call :meth:`snapshot` for a frozen
    :class:`FastpathSnapshot` field-identical to a fresh compile of the
    mutated overlay.

    Lifecycle (the intended churn loop)::

        recorder = DeltaRecorder.attach(network.graph)
        mirror = DeltaSnapshot.from_graph(network.graph)
        router = BatchGreedyRouter(mirror.snapshot())
        for round in rounds:
            ...joins / leaves / crashes / daemon.repair_all_batched()...
            mirror.apply(recorder.drain())
            router.rebase(mirror.snapshot())   # per-delta cache invalidation
            router.route_pairs(pairs)

    Liveness-only deltas (pure crash rounds) re-use the previously
    materialized adjacency via
    :meth:`FastpathSnapshot.with_alive`, so the router's dense matrices
    survive them untouched.
    """

    def __init__(self) -> None:
        # Liveness tier state.
        self._base: FastpathSnapshot | None = None
        self._mask_alive: np.ndarray | None = None
        # Per-edge liveness mask aligned with the base CSR (lazily created on
        # the first link flip; None means every edge is alive).
        self._mask_edge_alive: np.ndarray | None = None
        # The overlay behind a liveness-tier mirror (set by from_overlay);
        # OP_REBUILD recompiles it in place of an out-of-band recompile.
        self._source = None
        # Structural tier state (label-indexed arrays of size space_size).
        self.kind = ""
        self.space_size = 0
        self.symmetric_neighbors = True
        self._occupied: np.ndarray | None = None
        self._alive: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._long: _Slab | None = None
        self._incoming: _Slab | None = None
        # Materialization cache: re-used verbatim (modulo the alive mask)
        # until a structural op lands.  ``_dirty`` tracks the labels whose
        # compiled row may have changed since the last materialization, so
        # the next one can splice unchanged rows straight out of the
        # previous arrays instead of re-deduplicating every row.
        self._cached: FastpathSnapshot | None = None
        self._structure_dirty = True
        self._dirty: set[int] = set()
        self._pending_clears: set[int] = set()
        # Previous materialization, label-addressed (for row splicing).
        self._prev_flat: np.ndarray | None = None
        self._prev_start: np.ndarray | None = None
        self._prev_count: np.ndarray | None = None
        self._prev_present: np.ndarray | None = None
        # Which materialization strategy the last snapshot() call took
        # (reported to telemetry as refresh.strategy.<name>).
        self._last_strategy = "full_rebuild"
        # The op a structural-tier apply refused after changing the mirror.
        self._refused: tuple | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(
        cls, graph: OverlayGraph, symmetric_neighbors: bool = True
    ) -> "DeltaSnapshot":
        """Mirror an :class:`OverlayGraph` for full structural churn.

        The one-time cost equals a snapshot compile (one pass over the object
        graph); every subsequent event batch is an incremental
        :meth:`apply`.  Dead-flagged long links are mirrored with their
        liveness flags and excluded from materialized rows, exactly as
        :func:`~repro.fastpath.snapshot.compile_snapshot` excludes them.
        """
        space = graph.space
        if not isinstance(space, RingMetric):
            raise NotImplementedError(
                f"structural snapshot deltas require a RingMetric, got {type(space).__name__}"
            )
        mirror = cls()
        mirror.kind = "ring"
        mirror.space_size = space.size()
        mirror.symmetric_neighbors = symmetric_neighbors
        n = mirror.space_size
        pointer_dtype = label_dtype(n)
        mirror._occupied = np.zeros(n, dtype=bool)
        mirror._alive = np.zeros(n, dtype=bool)
        mirror._left = np.full(n, -1, dtype=pointer_dtype)
        mirror._right = np.full(n, -1, dtype=pointer_dtype)
        long_rows: list[list[int]] = [[] for _ in range(n)]
        long_flags: list[list[bool]] = [[] for _ in range(n)]
        incoming_rows: list[list[int]] = [[] for _ in range(n)]
        incoming_flags: list[list[bool]] = [[] for _ in range(n)]
        for node in graph.nodes():
            label = node.label
            mirror._occupied[label] = True
            mirror._alive[label] = node.alive
            if node.left is not None:
                mirror._left[label] = node.left
            if node.right is not None:
                mirror._right[label] = node.right
            long_rows[label] = [link.target for link in node.long_links]
            long_flags[label] = [link.alive for link in node.long_links]
            # The incoming slab replicates the graph's reverse-index *order*
            # (link creation order), which is the compiled row order.
            entries = graph.incoming_entries(label)
            incoming_rows[label] = [source for source, _alive in entries]
            incoming_flags[label] = [alive for _source, alive in entries]
        mirror._long = _Slab(long_rows, long_flags, dtype=pointer_dtype)
        mirror._incoming = _Slab(incoming_rows, incoming_flags, dtype=pointer_dtype)
        return mirror

    @classmethod
    def from_snapshot(cls, snapshot: FastpathSnapshot) -> "DeltaSnapshot":
        """Mirror any compiled snapshot for liveness deltas.

        Works for every Overlay protocol (the baselines included): crash and
        revive events flip the alive mask, link fail/revive events flip the
        per-edge mask; other structural events raise (use
        :meth:`from_overlay` when the overlay also rebuilds its tables).
        """
        mirror = cls()
        mirror._base = snapshot
        mirror._mask_alive = snapshot.alive.copy()
        mirror.kind = snapshot.kind
        mirror.space_size = snapshot.space_size
        mirror.symmetric_neighbors = snapshot.symmetric_neighbors
        mirror._structure_dirty = False
        if snapshot.edge_alive is not None:
            mirror._mask_edge_alive = snapshot.edge_alive.copy()
        return mirror

    @classmethod
    def from_overlay(cls, overlay: Any) -> "DeltaSnapshot":
        """Mirror a table-based Overlay (liveness tier + ``OP_REBUILD``).

        Like :meth:`from_snapshot` of ``overlay.compile_snapshot()``, but the
        mirror keeps a handle on the overlay so ``OP_REBUILD`` deltas (bulk
        table rebuilds such as Chord's ``stabilize``) can recompile it as
        part of :meth:`apply` instead of forcing an out-of-band recompile.
        """
        mirror = cls.from_snapshot(overlay.compile_snapshot())
        mirror._source = overlay
        return mirror

    @property
    def structural(self) -> bool:
        """Whether this mirror supports the full join/leave/crash vocabulary."""
        return self._base is None

    # ------------------------------------------------------------------ #
    # Delta application
    # ------------------------------------------------------------------ #

    def apply(self, delta: SnapshotDelta) -> None:
        """Apply one recorded mutation batch, in recorded order.

        Cost scales with the batch, not the overlay: liveness flips are mask
        writes, link edits touch only their slab rows (into spare slots),
        ring rewrites are pointer stores, and the per-label dirty set feeds
        the splicing materialization.  Pointer invalidation for departed
        vertices is deferred and flushed as one vectorized pass at the end
        of the batch.

        A refused batch leaves a liveness-tier mirror as it was.  A
        structural-tier mirror that refuses an op after changing anything
        raises :class:`HalfAppliedDeltaError` from every later ``apply`` and
        ``snapshot`` call.
        """
        self._check_not_refused()
        tel = telemetry_current()
        if tel is not None and delta.ops:
            for kind, count in delta.counts().items():
                # The link-liveness kinds are registered as literal names (the
                # registry's placeholder segments never match literals).
                if kind == "link_fail":
                    tel.count("refresh.ops.link_fail", count)
                elif kind == "link_revive":
                    tel.count("refresh.ops.link_revive", count)
                else:
                    tel.count(f"refresh.ops.{kind}", count)
        if not self.structural:
            self._apply_mask(delta)
            return
        occupied = self._occupied
        alive = self._alive
        left = self._left
        right = self._right
        long_slab = self._long
        in_slab = self._incoming
        dirty = self._dirty
        dirty_add = dirty.add
        long_append, long_remove = long_slab.append, long_slab.remove_first
        in_append, in_remove = in_slab.append, in_slab.remove_first
        structural = False
        try:
            for index, op in enumerate(delta.ops):
                code = op[0]
                if code == OP_FAIL or code == OP_REVIVE:
                    label = op[1]
                    # As on the liveness tier; -1 would wrap onto the top label.
                    if not 0 <= label < occupied.shape[0] or not occupied[label]:
                        raise KeyError(f"labels {[int(label)]} are not vertices of this snapshot")
                    alive[label] = code == OP_REVIVE
                elif code == OP_SET_RING:
                    left[op[1]] = op[2]
                    right[op[1]] = op[3]
                    dirty_add(op[1])
                    structural = True
                elif code == OP_ADD_LINK:
                    long_append(op[1], op[2])
                    in_append(op[2], op[1])
                    dirty_add(op[1])
                    dirty_add(op[2])
                    structural = True
                elif code == OP_REMOVE_LINK:
                    # Drop the entry in whatever liveness state it is in, and the
                    # paired incoming entry in the *same* state, so parallel
                    # links of mixed liveness stay correctly paired.
                    flag = long_remove(op[1], op[2], None)
                    in_remove(op[2], op[1], flag)
                    dirty_add(op[1])
                    dirty_add(op[2])
                    structural = True
                elif code == OP_REDIRECT_LINK:
                    long_slab.replace_first(op[1], op[2], op[3])
                    in_remove(op[2], op[1], True)
                    in_append(op[3], op[1])
                    dirty_add(op[1])
                    dirty_add(op[2])
                    dirty_add(op[3])
                    structural = True
                elif code == OP_LINK_FAIL:
                    long_slab.set_flag_first(op[1], op[2], True, False)
                    in_slab.set_flag_first(op[2], op[1], True, False)
                    dirty_add(op[1])
                    dirty_add(op[2])
                    structural = True
                elif code == OP_LINK_REVIVE:
                    long_slab.set_flag_first(op[1], op[2], False, True)
                    in_slab.set_flag_first(op[2], op[1], False, True)
                    dirty_add(op[1])
                    dirty_add(op[2])
                    structural = True
                elif code == OP_ADD_NODE:
                    label = op[1]
                    if label in self._pending_clears:
                        # The label departed earlier in this very batch; clear
                        # the stale pointers at it before it is reborn so the
                        # deferred bulk flush cannot wipe its new ring wiring.
                        self._flush_pointer_clears({label})
                        self._pending_clears.discard(label)
                    occupied[label] = True
                    alive[label] = True
                    left[label] = -1
                    right[label] = -1
                    long_slab.clear_row(label)
                    in_slab.clear_row(label)
                    dirty.add(label)
                    structural = True
                elif code == OP_REMOVE_NODE:
                    self._remove_node(op[1])
                    structural = True
                elif code == OP_REBUILD:
                    raise NotImplementedError(
                        "structural-tier DeltaSnapshot has no table rebuild; "
                        "OP_REBUILD applies to Overlay-backed liveness mirrors"
                    )
                else:  # pragma: no cover - recorder and apply share the op set
                    raise ValueError(f"unknown delta op code {code!r}")
        except Exception:
            # Only a liveness op refused first leaves the mirror untouched
            # (its vertex check precedes its write); anything later serves
            # a half-applied state, so the mirror refuses to go on.
            if index or op[0] not in _LIVENESS_OPS:
                self._refused = op
            raise
        if self._pending_clears:
            self._flush_pointer_clears(self._pending_clears)
            self._pending_clears = set()
        if structural:
            self._structure_dirty = True

    def _check_not_refused(self) -> None:
        if self._refused is not None:
            op = self._refused
            raise HalfAppliedDeltaError(
                f"this mirror refused {_OP_NAMES.get(op[0], op[0])!r} "
                f"{[int(value) for value in op[1:]]} "
                "part-way through a delta and holds a half-applied state; "
                "mirror the overlay afresh with DeltaSnapshot.from_graph"
            )

    def _apply_mask(self, delta: SnapshotDelta) -> None:
        """Liveness-tier application: node flips, edge flips, and rebuilds.

        Crash/revive flip the node mask; ``OP_LINK_FAIL``/``OP_LINK_REVIVE``
        scatter onto a per-edge mask aligned with the base CSR (every
        ``holder -> target`` entry flips — parallel links share their fate,
        matching the table-based overlays' per-pair edge state);
        ``OP_REBUILD`` recompiles the source overlay (``from_overlay``
        mirrors only).  Other structural ops still require a recompile.

        All or nothing: every op is resolved and checked first, the last
        write per vertex and per edge is kept, and the mirror changes only
        once the whole batch is accepted.  A rebuild resets both masks, so
        the writes recorded before it are dropped (and go unchecked once an
        earlier rebuild has replaced the base they were recorded against).
        """
        base = self._base
        nodes: dict[int, bool] = {}
        edges: dict[int, bool] = {}

        def vertices_of_nodes() -> np.ndarray:
            # Raises KeyError on a label ``base`` does not hold.
            return base.indices_of(np.fromiter(nodes, dtype=np.int64, count=len(nodes)))

        last = max((i for i, op in enumerate(delta.ops) if op[0] == OP_REBUILD), default=-1)
        for index, op in enumerate(delta.ops):
            code = op[0]
            if index < last and base is not self._base:
                continue  # between two rebuilds: dropped, and ``base`` is the overlay now
            if code == OP_FAIL or code == OP_REVIVE:
                nodes[op[1]] = code == OP_REVIVE
            elif code == OP_LINK_FAIL or code == OP_LINK_REVIVE:
                holder, target = base.indices_of([op[1], op[2]])
                indptr = base.neighbor_indptr
                start, stop = int(indptr[holder]), int(indptr[holder + 1])
                hits = np.flatnonzero(base.neighbor_indices[start:stop] == target)
                if not hits.size:
                    raise ValueError(
                        f"snapshot row {op[1]} has no edge to {op[2]}; "
                        "delta mirror diverged"
                    )
                for entry in (start + hits).tolist():
                    edges[entry] = code == OP_LINK_REVIVE
            elif code == OP_REBUILD:
                if self._source is None:
                    raise NotImplementedError(
                        "OP_REBUILD needs an overlay-backed mirror; construct "
                        "with DeltaSnapshot.from_overlay(overlay)"
                    )
                vertices_of_nodes()  # the writes the rebuild drops are still checked
                base = self._source.compile_snapshot()
                nodes.clear()
                edges.clear()
            else:
                raise NotImplementedError(
                    f"liveness-tier DeltaSnapshot cannot apply {_OP_NAMES[op[0]]!r}; "
                    "recompile the overlay for structural changes"
                )
        vertices = vertices_of_nodes()
        if base is not self._base:
            self._base = base
            self._mask_alive = base.alive.copy()
            self._mask_edge_alive = None if base.edge_alive is None else base.edge_alive.copy()
        self._mask_alive[vertices] = np.fromiter(nodes.values(), dtype=bool, count=len(nodes))
        if edges:
            self._edge_mask()[np.fromiter(edges, dtype=np.int64, count=len(edges))] = np.fromiter(
                edges.values(), dtype=bool, count=len(edges)
            )

    def _edge_mask(self) -> np.ndarray:
        """The per-edge alive mask, created on first use (liveness tier)."""
        if self._mask_edge_alive is None:
            base = self._base.edge_alive
            if base is not None:
                self._mask_edge_alive = base.copy()
            else:
                self._mask_edge_alive = np.ones(
                    self._base.neighbor_indices.shape[0], dtype=bool
                )
        return self._mask_edge_alive

    def crash(self, labels: Iterable[int] | np.ndarray) -> None:
        """Convenience bulk crash (both tiers): flip the labels' alive bits off.

        Mirrors ``overlay.fail_node`` calls made *without* a recorder; do not
        combine with recorded deltas for the same events.  A label that is no
        vertex is refused with a ``KeyError``, and nothing is written.
        """
        self._set_alive(labels, False)

    def revive(self, labels: Iterable[int] | np.ndarray) -> None:
        """Convenience bulk revive (both tiers): flip the labels' alive bits on."""
        self._set_alive(labels, True)

    def _set_alive(self, labels: Iterable[int] | np.ndarray, alive: bool) -> None:
        if not self.structural:
            self._mask_alive[self._base.indices_of(np.asarray(labels))] = alive
            return
        labels = np.asarray(labels, dtype=np.int64)
        # As in apply; a bare index would wrap -1 onto the top label.
        inside = (labels >= 0) & (labels < self._occupied.shape[0])
        vertex = inside.copy()
        vertex[inside] = self._occupied[labels[inside]]
        if not vertex.all():
            refused = labels[~vertex].ravel()
            raise KeyError(f"labels {refused[:5].tolist()} are not vertices of this snapshot")
        self._alive[labels] = alive

    def _remove_node(self, label: int) -> None:
        """Replay :meth:`OverlayGraph.remove_node` against the mirror."""
        long_slab = self._long
        in_slab = self._incoming
        dirty = self._dirty
        # Drop the departing node's outgoing links from the reverse index,
        # each paired with its own liveness state.
        # repro: allow[RPR005] — paired value/flag walk over one slab row
        pairs = zip(long_slab.row(label).tolist(), long_slab.row_flags(label).tolist())
        for target, flag in pairs:
            in_slab.remove_first(target, label, flag)
            dirty.add(target)
        # Drop every link that pointed at the departed node.
        for source in set(in_slab.row(label).tolist()):
            long_slab.remove_all(source, label)
            dirty.add(source)
        long_slab.clear_row(label)
        in_slab.clear_row(label)
        self._occupied[label] = False
        self._alive[label] = False
        dirty.add(label)
        # Stale ring pointers at the departed vertex are cleared exactly as
        # the object graph clears them, but in one vectorized pass at the
        # end of the batch (see apply) rather than per departure.
        self._pending_clears.add(label)

    def _flush_pointer_clears(self, departed: set[int]) -> None:
        """Clear every ring pointer at a departed label (vectorized scan)."""
        targets = np.fromiter(departed, dtype=np.int64, count=len(departed))
        stale_left = np.isin(self._left, targets)
        stale_right = np.isin(self._right, targets)
        self._left[stale_left] = -1
        self._right[stale_right] = -1
        # repro: allow[RPR005] — the dirty set stores Python ints by contract
        self._dirty.update(np.flatnonzero(stale_left | stale_right).tolist())

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #

    def snapshot(self) -> FastpathSnapshot:
        """Freeze the current state into a :class:`FastpathSnapshot`.

        Field-identical to compiling the mirrored overlay from scratch, at a
        cost that scales with what the deltas touched:

        * no structural change since the last call — the cached snapshot is
          re-used via :meth:`FastpathSnapshot.with_alive` (the batch
          router's dense matrices stay warm);
        * a small dirty set — only the touched rows are re-deduplicated;
          every other row is spliced verbatim out of the previous
          materialization's arrays;
        * a large dirty set (or the first call) — one fully vectorized
          rebuild of all rows.

        With telemetry enabled, each call records a ``refresh`` span, the
        strategy taken (``refresh.strategy.liveness_reuse`` /
        ``row_splice`` / ``full_rebuild``), and a ``refresh.ms`` histogram
        sample.
        """
        self._check_not_refused()
        tel = telemetry_current()
        if tel is None:
            return self._snapshot_impl()
        # repro: allow[RPR001] — timing only reachable with telemetry on
        started = time.perf_counter()
        with tel.span("refresh"):
            snapshot = self._snapshot_impl()
        tel.count(f"refresh.strategy.{self._last_strategy}")
        # repro: allow[RPR001] — timing only reachable with telemetry on
        tel.observe("refresh.ms", (time.perf_counter() - started) * 1e3)
        return snapshot

    def _snapshot_impl(self) -> FastpathSnapshot:
        if not self.structural:
            self._last_strategy = "liveness_reuse"
            snapshot = self._base.with_alive(self._mask_alive)
            if self._mask_edge_alive is not None:
                snapshot = snapshot.with_edge_alive(self._mask_edge_alive)
            return snapshot
        if self._cached is not None and not self._structure_dirty:
            self._last_strategy = "liveness_reuse"
            return self._cached.with_alive(self._alive[self._cached.labels])
        snapshot = self._materialize()
        self._cached = snapshot
        self._structure_dirty = False
        self._dirty = set()
        return snapshot

    def _materialize(self) -> FastpathSnapshot:
        labels = np.flatnonzero(self._occupied).astype(np.int64)
        n = labels.size

        # Splice whenever rebuilding only the dirty rows is cheaper than
        # re-deduplicating everything; the unchanged-row block copy is cheap,
        # so splicing wins until roughly two thirds of the rows are dirty.
        splice = (
            self._prev_present is not None
            and len(self._dirty) * 3 < 2 * n
        )
        self._last_strategy = "row_splice" if splice else "full_rebuild"
        if splice:
            values, counts = self._spliced_rows(labels)
        else:
            values, counts = self._rows_for(labels)
            if values.size and not self._occupied[values].all():
                bad = values[~self._occupied[values]]
                raise ValueError(
                    f"delta mirror links point at non-vertex labels "
                    f"{bad[:5].tolist()}; the mirror diverged from the overlay"
                )

        # Label-addressed copy of this materialization, for the next splice.
        starts = np.zeros(n, dtype=np.int64)
        if n:
            np.cumsum(counts[:-1], out=starts[1:])
        prev_start = np.zeros(self.space_size, dtype=np.int64)
        prev_count = np.zeros(self.space_size, dtype=np.int64)
        prev_start[labels] = starts
        prev_count[labels] = counts
        self._prev_flat = values
        self._prev_start = prev_start
        self._prev_count = prev_count
        self._prev_present = self._occupied.copy()

        # Translate neighbour labels to vertex indices by direct addressing
        # (every value is an occupied label, checked above / by splicing).
        position = np.cumsum(self._occupied, dtype=np.int32)
        position -= 1
        indices = position[values]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        # Materialization arithmetic stays int64 (cumsum offsets, direct
        # addressing); storage narrows to the contract dtypes at the boundary,
        # matching compile_snapshot so the parity contract covers dtypes too.
        return FastpathSnapshot(
            kind=self.kind,
            space_size=self.space_size,
            labels=narrow_labels(labels, self.space_size),
            alive=self._alive[labels],
            neighbor_indptr=narrow_indptr(indptr),
            neighbor_indices=indices,
            symmetric_neighbors=self.symmetric_neighbors,
        )

    def _spliced_rows(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Merge rebuilt dirty rows with unchanged rows of the previous pass."""
        occupied = self._occupied
        dirty_mask = np.zeros(self.space_size, dtype=bool)
        if self._dirty:
            dirty_mask[np.fromiter(self._dirty, dtype=np.int64, count=len(self._dirty))] = True
        # Labels that appeared since the previous materialization are always
        # rebuilt, whatever the dirty set says.
        dirty_mask |= occupied & ~self._prev_present
        dirty_mask &= occupied

        dirty_labels = np.flatnonzero(dirty_mask).astype(np.int64)
        dirty_values, dirty_counts = self._rows_for(dirty_labels)
        if dirty_values.size and not occupied[dirty_values].all():
            bad = dirty_values[~occupied[dirty_values]]
            raise ValueError(
                f"delta mirror links point at non-vertex labels "
                f"{bad[:5].tolist()}; the mirror diverged from the overlay"
            )

        is_dirty = dirty_mask[labels]
        counts = np.empty(labels.size, dtype=np.int64)
        counts[is_dirty] = dirty_counts
        clean_labels = labels[~is_dirty]
        clean_counts = self._prev_count[clean_labels]
        counts[~is_dirty] = clean_counts

        starts = np.zeros(labels.size, dtype=np.int64)
        if labels.size:
            np.cumsum(counts[:-1], out=starts[1:])
        values = np.empty(int(counts.sum()), dtype=np.int32)

        # Dirty rows: scatter the rebuilt entries to their final positions.
        dirty_rows = np.flatnonzero(is_dirty)
        positions = np.repeat(starts[dirty_rows], dirty_counts) + _within(dirty_counts)
        values[positions] = dirty_values
        # Clean rows: block-copy straight out of the previous flat array.
        # Source and destination positions share one running index; only the
        # per-row shifts differ, so each needs a single expansion.
        clean_rows = np.flatnonzero(~is_dirty)
        prev_starts = self._prev_start[clean_labels]
        clean_total = int(clean_counts.sum())
        clean_row_starts = np.cumsum(clean_counts) - clean_counts
        running = np.arange(clean_total, dtype=np.int32)
        sources = running + np.repeat(
            (prev_starts - clean_row_starts).astype(np.int32), clean_counts
        )
        positions = running + np.repeat(
            (starts[clean_rows] - clean_row_starts).astype(np.int32), clean_counts
        )
        values[positions] = self._prev_flat[sources]
        return values, counts

    def _rows_for(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Compile the rows of ``labels``: per-row S + L + deduplicated I.

        Returns the flattened neighbour *labels* and the per-row counts.
        Fully vectorized; the incoming dedup uses two stable integer
        argsorts (radix sorts in NumPy) instead of a general lexsort.
        """
        n = labels.size
        row_ids = np.arange(n, dtype=np.int64)

        # Section S: the short links, left first then right (right skipped
        # when it duplicates left), built as a masked (n, 2) matrix so the
        # row-major flatten preserves per-row order.
        lefts = self._left[labels]
        rights = self._right[labels]
        short_matrix = np.stack([lefts, rights], axis=1)
        short_mask = np.stack([lefts >= 0, (rights >= 0) & (rights != lefts)], axis=1)
        s_counts = short_mask.sum(axis=1)
        s_values = short_matrix[short_mask]
        s_rows = np.repeat(row_ids, s_counts)

        # Sections L and I: gathered straight out of the slack slabs.
        l_values, l_rows, l_counts = self._long.gather(labels)
        if self.symmetric_neighbors:
            i_values, i_rows, i_counts = self._incoming.gather(labels)
        else:
            i_values = np.empty(0, dtype=np.int64)
            i_rows = np.empty(0, dtype=np.int64)
            i_counts = np.zeros(n, dtype=np.int64)

        # Stitch the sections into per-row S + L + I order by scattering each
        # entry to its final position (no sort needed: sections are built in
        # row order already).
        total_counts = s_counts + l_counts + i_counts
        row_starts = np.zeros(n, dtype=np.int64)
        if n:
            np.cumsum(total_counts[:-1], out=row_starts[1:])
        total = int(total_counts.sum())
        # Flat values are labels, which fit int32 for every practical space;
        # the narrower dtype halves the memory traffic of the dedup gathers
        # and of the splice block copies that re-use these arrays.
        values = np.empty(total, dtype=np.int32)
        rows = np.empty(total, dtype=np.int64)
        section = np.empty(total, dtype=np.int8)

        def scatter(sec_rows, sec_values, sec_offset_within, sec_code):
            positions = row_starts[sec_rows] + sec_offset_within
            values[positions] = sec_values
            rows[positions] = sec_rows
            section[positions] = sec_code

        scatter(s_rows, s_values, _within(s_counts), 0)
        scatter(l_rows, l_values, s_counts[l_rows] + _within(l_counts), 1)
        scatter(i_rows, i_values, (s_counts + l_counts)[i_rows] + _within(i_counts), 2)

        # Incoming dedup: an incoming entry survives only when its value has
        # not already appeared earlier in the row (any section) and is not
        # the row's own label — compile_snapshot's ``seen`` set, vectorized.
        # Stable integer argsorts (radix sorts in NumPy) order entries by
        # (row, value, flat position); each (row, value) group's first
        # occurrence comes first, so every later group member is a
        # duplicate.  When (row, value) packs into 31 bits — every small and
        # medium overlay — one packed radix sort replaces the two passes.
        if n * self.space_size < (1 << 31):
            # rows stays int64 for fancy indexing; the widened product is
            # guarded to fit and narrowed here.
            packed = (rows * self.space_size + values).astype(np.int32)
            order = np.argsort(packed, kind="stable")
        else:
            value_order = np.argsort(values, kind="stable")
            order = value_order[np.argsort(rows[value_order], kind="stable")]
        dup_sorted = np.zeros(total, dtype=bool)
        if total > 1:
            dup_sorted[1:] = (rows[order][1:] == rows[order][:-1]) & (
                values[order][1:] == values[order][:-1]
            )
        duplicate = np.zeros(total, dtype=bool)
        duplicate[order] = dup_sorted
        keep = (section != 2) | (~duplicate & (values != labels[rows]))

        kept_rows = rows[keep]
        counts = np.bincount(kept_rows, minlength=n).astype(np.int64)
        return values[keep], counts


def _within(counts: np.ndarray) -> np.ndarray:
    """0-based position of each flattened entry within its row."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
