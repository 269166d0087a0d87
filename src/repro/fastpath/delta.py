"""Incremental snapshot deltas: churn without full recompiles.

The batch engine routes over frozen :class:`FastpathSnapshot` arrays.  A
churn or maintenance experiment changes the overlay between batches, and
recompiling the whole snapshot after every event batch would cost O(n)
Python work each time — the cost the paper argues random overlays avoid
("most random structures require less work to maintain their much weaker
invariants").  This module keeps the router current at the cost of what
changed:

* :class:`SnapshotDelta` — an ordered batch of overlay mutations
  (join/leave/crash/repair expressed as node, liveness, ring-pointer, and
  long-link operations);
* :class:`DeltaRecorder` — an observer attached to an
  :class:`~repro.core.graph.OverlayGraph` (every mutation the construction
  heuristic, failure models, and maintenance daemon perform) or to a table
  overlay (:class:`~repro.overlay.mixin.OverlayMixin`'s liveness flips and
  bulk rebuilds);
* :class:`DeltaSnapshot` — a mirror that applies deltas and
  :meth:`~DeltaSnapshot.snapshot`\\ s into a frozen
  :class:`FastpathSnapshot` on demand.

Parity contract
---------------
After applying any recorded event sequence, ``delta.snapshot()`` is
**field-identical** to a fresh ``compile_snapshot(graph)`` of the mutated
object graph: same labels, same alive mask, same CSR arrays entry for entry.
The contract is property-tested across randomized join/leave/crash/repair
sequences in ``tests/property/test_property_delta.py``, for the paper's own
overlay and — via the liveness tier — for every baseline Overlay protocol.

Two tiers
---------
* **Structural tier** (:meth:`DeltaSnapshot.from_graph`) — for
  :class:`~repro.core.graph.OverlayGraph`-backed overlays on a ring (the
  paper's networks): supports the full event vocabulary.  The graph is the
  one copy of the adjacency.  The mirror keeps label-indexed membership and
  liveness masks, and notes which labels each op touched; ``snapshot()``
  re-reads only those rows from the graph (plus every row that named a
  departed label) and splices every other row out of the previous
  materialization.
* **Liveness tier** (:meth:`DeltaSnapshot.from_snapshot` /
  :meth:`DeltaSnapshot.from_overlay`) — for *any* compiled snapshot,
  including the baseline protocol overlays (Chord, CAN, Kleinberg,
  Plaxton): crash/revive flips, per-edge liveness flips
  (``OP_LINK_FAIL``/``OP_LINK_REVIVE`` applied as mask scatters onto the
  CSR validity arrays), and — when constructed :meth:`from_overlay` — bulk
  table rebuilds (``OP_REBUILD``, e.g. Chord's ``stabilize``) expressed as
  one recompile delta op instead of an out-of-band recompile.

Per-*link* failure flips (``LinkFailureModel``, fault schedules) batch like
node churn: the structural tier re-reads the two rows a flip touches (a
compiled row omits dead links), and the liveness tier scatters the flip onto
an ``edge_alive`` mask.
"""

from __future__ import annotations

import time
from itertools import chain
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
    "TornSnapshotError",
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

# How many fields after the op code are labels that must be vertices when the
# op lands (a structural-tier check).  OP_SET_RING's pointers are not checked
# (-1 encodes None), and OP_ADD_NODE's label need only be a point of the ring.
_VERTEX_FIELDS = {
    OP_REMOVE_NODE: 1,
    OP_FAIL: 1,
    OP_REVIVE: 1,
    OP_SET_RING: 1,
    OP_ADD_LINK: 2,
    OP_REMOVE_LINK: 2,
    OP_REDIRECT_LINK: 3,
    OP_LINK_FAIL: 2,
    OP_LINK_REVIVE: 2,
}

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


class TornSnapshotError(RuntimeError):
    """A structural-tier ``snapshot()`` would mix applied and unapplied mutations.

    The structural mirror reads its touched rows from the graph when it
    snapshots.  While the graph's recorder still holds mutations the mirror
    has not applied, those rows would already show them and every other row
    would not.
    """


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


class DeltaSnapshot:
    """An overlay mirror that applies deltas and snapshots on demand.

    Create with :meth:`from_graph` (structural tier: full churn vocabulary)
    or :meth:`from_snapshot` (liveness tier: crash/revive on any compiled
    overlay).  Apply recorded :class:`SnapshotDelta` batches with
    :meth:`apply`, then call :meth:`snapshot` for a frozen
    :class:`FastpathSnapshot` field-identical to a fresh compile of the
    mutated overlay.

    The structural tier holds no copy of the adjacency.  It keeps the
    :class:`~repro.core.graph.OverlayGraph` it mirrors, label-indexed
    membership and liveness masks, and the set of labels whose rows the
    applied ops touched; :meth:`snapshot` re-reads those rows from the graph.
    So apply every recorded mutation before snapshotting: a ``snapshot()``
    with rows to re-read while the graph's recorder holds unapplied
    mutations raises :class:`TornSnapshotError`.

    Lifecycle (the intended churn loop)::

        mirror = DeltaSnapshot.from_graph(network.graph)
        recorder = DeltaRecorder.attach(network.graph)
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
        # Structural tier state: the mirrored graph and label-indexed masks
        # of size space_size, as of the last applied op.
        self.kind = ""
        self.space_size = 0
        self.symmetric_neighbors = True
        self._graph: OverlayGraph | None = None
        self._occupied: np.ndarray | None = None
        self._alive: np.ndarray | None = None
        # Materialization cache: re-used verbatim (modulo the alive mask)
        # until a structural op lands.  ``_dirty`` holds the labels whose
        # rows the applied ops touched and ``_departed`` the labels removed
        # since the last materialization; the next one re-reads those rows
        # (and the rows that named a departed label) and splices every other
        # row straight out of the previous one, whose neighbour labels
        # ``_prev_flat`` keeps.
        self._cached: FastpathSnapshot | None = None
        self._dirty: set[int] = set()
        self._departed: set[int] = set()
        self._prev_flat: np.ndarray | None = None
        # Which materialization strategy the last snapshot() call took
        # (reported to telemetry as refresh.strategy.<name>).
        self._last_strategy = "full_rebuild"

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(
        cls, graph: OverlayGraph, symmetric_neighbors: bool = True
    ) -> "DeltaSnapshot":
        """Mirror an :class:`OverlayGraph` for full structural churn.

        Records the graph's membership and liveness; the first
        :meth:`snapshot` reads every row, and every later one only the rows
        the applied deltas touched.  Rows are read as
        :func:`~repro.fastpath.snapshot.compile_snapshot` reads them (dead
        links left out).
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
        mirror._graph = graph
        mirror._occupied = np.zeros(mirror.space_size, dtype=bool)
        mirror._alive = np.zeros(mirror.space_size, dtype=bool)
        mirror._occupied[np.asarray(graph.labels(), dtype=np.int64)] = True
        mirror._alive[np.asarray(graph.labels(only_alive=True), dtype=np.int64)] = True
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

        Cost scales with the batch, not the overlay.  The liveness tier
        writes masks; the structural tier writes its membership and liveness
        masks and notes the labels each op touched, whose rows the next
        :meth:`snapshot` re-reads from the graph.

        Both tiers check every op before they write anything, so a refused
        batch leaves the mirror as it was.  On the structural tier every
        label an op names must be a vertex at that point of the batch
        (``KeyError`` otherwise); ``OP_REBUILD`` is refused.
        """
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
        if self.structural:
            self._apply_rows(delta)
        else:
            self._apply_mask(delta)

    def _apply_rows(self, delta: SnapshotDelta) -> None:
        """Structural-tier application: check every op, then note what it touched."""
        # Membership and liveness as the batch leaves them, for the labels it
        # adds or removes (later ops check against these) and flips.
        present: dict[int, bool] = {}
        alive: dict[int, bool] = {}
        unchecked: list[int] = []  # checked at the end against the masks as they are
        refused: list[int] = []
        touched: list[int] = []
        departed: list[int] = []
        for op in delta.ops:
            code = op[0]
            if code == OP_ADD_NODE:
                label = op[1]
                if not 0 <= label < self.space_size:
                    refused.append(label)
                present[label] = alive[label] = True
                touched.append(label)
                continue
            fields = _VERTEX_FIELDS.get(code)
            if fields is None:
                if code == OP_REBUILD:
                    raise NotImplementedError(
                        "structural-tier DeltaSnapshot has no table rebuild; "
                        "OP_REBUILD applies to Overlay-backed liveness mirrors"
                    )
                raise ValueError(f"unknown delta op code {code!r}")
            named = op[1 : 1 + fields]
            for label in named:
                state = present.get(label)
                if state is None:
                    unchecked.append(label)
                elif not state:
                    refused.append(label)
            if code == OP_FAIL or code == OP_REVIVE:
                alive[op[1]] = code == OP_REVIVE
            elif code == OP_REMOVE_NODE:
                present[op[1]] = alive[op[1]] = False
                departed.append(op[1])
                touched.append(op[1])
            else:
                touched.extend(named)
        missing = self._non_vertices(unchecked)
        if refused or missing.size:
            raise KeyError(
                f"labels {[int(label) for label in refused + missing.tolist()][:5]} "
                "are not vertices of this snapshot"
            )
        for mask, writes in ((self._occupied, present), (self._alive, alive)):
            if writes:
                mask[np.fromiter(writes, dtype=np.int64, count=len(writes))] = np.fromiter(
                    writes.values(), dtype=bool, count=len(writes)
                )
        self._dirty.update(touched)
        self._departed.update(departed)

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
        refused = self._non_vertices(labels)
        if refused.size:
            raise KeyError(f"labels {refused[:5].tolist()} are not vertices of this snapshot")
        self._alive[np.asarray(labels, dtype=np.int64)] = alive

    def _non_vertices(self, labels: Iterable[int] | np.ndarray) -> np.ndarray:
        """The labels that are no vertex of the structural mirror, flattened.

        Checked by value: a bare index would wrap -1 onto the top label.
        """
        labels = np.asarray(labels, dtype=np.int64).ravel()
        inside = (labels >= 0) & (labels < self.space_size)
        vertex = inside.copy()
        vertex[inside] = self._occupied[labels[inside]]
        return labels[~vertex]

    def snapshot(self) -> FastpathSnapshot:
        """Freeze the current state into a :class:`FastpathSnapshot`.

        Field-identical to compiling the mirrored overlay from scratch, at a
        cost that scales with what the deltas touched:

        * no structural change since the last call — the cached snapshot is
          re-used via :meth:`FastpathSnapshot.with_alive` (the batch
          router's dense matrices stay warm);
        * few stale rows (touched by an op, or naming a departed label) —
          only those are re-read from the graph; every other row is spliced
          verbatim out of the previous materialization's arrays;
        * many stale rows (or the first call) — every row is re-read.

        With telemetry enabled, each call records a ``refresh`` span, the
        strategy taken (``refresh.strategy.liveness_reuse`` /
        ``row_splice`` / ``full_rebuild``), and a ``refresh.ms`` histogram
        sample.
        """
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
        if self._cached is not None and not self._dirty:
            self._last_strategy = "liveness_reuse"
            return self._cached.with_alive(self._alive[self._cached.labels])
        recorder = self._graph.observer
        if isinstance(recorder, DeltaRecorder) and len(recorder):
            raise TornSnapshotError(
                f"the graph's recorder holds {len(recorder)} mutations this mirror "
                "has not applied; apply(recorder.drain()) before snapshot()"
            )
        snapshot = self._materialize()
        self._cached = snapshot
        self._dirty = set()
        self._departed = set()
        return snapshot

    def _materialize(self) -> FastpathSnapshot:
        occupied = self._occupied
        labels = np.flatnonzero(occupied).astype(np.int64)
        n = labels.size
        stale = self._stale_rows()

        # Splice whenever re-reading only the stale rows is cheaper than
        # reading everything; the unchanged-row block copy is cheap, so
        # splicing wins until roughly two thirds of the rows are stale.
        splice = stale is not None and int(np.count_nonzero(stale)) * 3 < 2 * n
        self._last_strategy = "row_splice" if splice else "full_rebuild"
        if splice:
            values, counts = self._spliced_rows(labels, stale)
        else:
            values, counts = self._read_rows(labels)

        self._prev_flat = values

        # Translate neighbour labels to vertex indices by direct addressing
        # (every value is an occupied label, checked by _read_rows).
        position = np.cumsum(occupied, dtype=np.int32)
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

    def _stale_rows(self) -> np.ndarray | None:
        """Label mask of the rows to re-read, or ``None`` with nothing to splice from.

        A row is stale when an applied op touched its label, or when the
        previous materialization's row names a label removed since: the
        graph drops links and ring pointers at a departing vertex without
        recording an op per holder.
        """
        previous = self._cached
        if previous is None:
            return None
        stale = np.zeros(self.space_size, dtype=bool)
        stale[np.fromiter(self._dirty, dtype=np.int64, count=len(self._dirty))] = True
        if self._departed:
            departed = np.fromiter(self._departed, dtype=np.int64, count=len(self._departed))
            entries = np.flatnonzero(np.isin(self._prev_flat, departed))
            rows = np.searchsorted(previous.neighbor_indptr, entries, side="right") - 1
            stale[previous.labels[rows]] = True
        stale &= self._occupied
        return stale

    def _spliced_rows(
        self, labels: np.ndarray, stale: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merge re-read stale rows with unchanged rows of the previous pass."""
        stale_values, stale_counts = self._read_rows(np.flatnonzero(stale))

        # Clean rows are rows of the previous materialization, located by label.
        previous = self._cached
        is_stale = stale[labels]
        clean_rows_before = np.searchsorted(previous.labels, labels[~is_stale])
        prev_starts = previous.neighbor_indptr[clean_rows_before].astype(np.int64)
        clean_counts = previous.neighbor_indptr[clean_rows_before + 1] - prev_starts
        counts = np.empty(labels.size, dtype=np.int64)
        counts[is_stale] = stale_counts
        counts[~is_stale] = clean_counts

        starts = np.zeros(labels.size, dtype=np.int64)
        if labels.size:
            np.cumsum(counts[:-1], out=starts[1:])
        values = np.empty(int(counts.sum()), dtype=stale_values.dtype)

        # Stale rows: scatter the re-read entries to their final positions.
        stale_rows = np.flatnonzero(is_stale)
        positions = np.repeat(starts[stale_rows], stale_counts) + _within(stale_counts)
        values[positions] = stale_values
        # Clean rows: block-copy straight out of the previous flat array.
        # Source and destination positions share one running index; only the
        # per-row shifts differ, so each needs a single expansion.
        clean_rows = np.flatnonzero(~is_stale)
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

    def _read_rows(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read the rows of ``labels`` from the graph: flat neighbour labels, per-row counts.

        Each row is :meth:`OverlayGraph.neighbors_of` with the arguments
        ``compile_snapshot`` inlines — short links, live long links, then
        (symmetric mirrors) the deduplicated sources of live incoming links.
        """
        neighbors_of = self._graph.neighbors_of
        symmetric = self.symmetric_neighbors
        rows = [
            neighbors_of(
                label, only_alive_nodes=False, only_alive_links=True, include_incoming=symmetric
            )
            for label in labels.tolist()
        ]
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        values = np.fromiter(
            chain.from_iterable(rows), dtype=label_dtype(self.space_size), count=int(counts.sum())
        )
        missing = self._non_vertices(values)
        if missing.size:
            raise ValueError(
                f"delta mirror rows point at non-vertex labels "
                f"{missing[:5].tolist()}; the mirror diverged from the overlay"
            )
        return values, counts


def _within(counts: np.ndarray) -> np.ndarray:
    """0-based position of each flattened entry within its row."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
