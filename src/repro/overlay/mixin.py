"""Shared implementation half of the :class:`~repro.overlay.Overlay` protocol.

Before this layer existed every baseline hand-rolled the same four methods
(``labels`` / ``is_alive`` / ``fail_node`` / ``fail_fraction``) and its own
copy of the scalar greedy loop.  :class:`OverlayMixin` hoists all of that:

* **liveness bookkeeping** over a sorted member-label array + boolean mask
  (with an O(1) fast path when labels are contiguous ``0..n-1``);
* **failure injection** with the exact per-protocol RNG stream the old
  copies used (``failure_stream``), so seeded experiments reproduce the
  same victim draws;
* the **mutation observer** hook (``set_observer`` / ``observer``), the same
  single-observer seam :class:`~repro.core.graph.OverlayGraph` has: every
  liveness mutator notifies it, so a
  :class:`~repro.fastpath.delta.DeltaRecorder` attached to a table overlay
  records the op stream whoever mutates it;
* the **scalar greedy loop** (``route``), parameterised by one method —
  ``next_hop`` — and ordered (arrival check, hop budget, step) to match the
  batched router's per-query semantics move for move;
* the **snapshot compiler** (``compile_snapshot``), which takes the
  overlay's routing table as CSR arrays (``routing_table``), maps its labels
  to member rows with one ``searchsorted`` (none when the members are
  ``0 .. n-1``, where a label is its row), marks dead table entries with one
  vectorised membership test, and attaches the protocol's
  :class:`~repro.overlay.policy.GreedyPolicy`, making every subclass a
  fastpath citizen.

A concrete overlay supplies: ``space``, ``hop_limit``, ``snapshot_kind``,
``failure_stream``, ``next_hop(current, target)``, ``neighbors_of(label)``,
and ``greedy_policy()``.  The built-in protocols also override
``routing_table`` to build every row at once from their own arrays (and to
tag Chord's finger/successor tiers); the default asks ``neighbors_of`` one
label at a time, which is all a small user-defined overlay needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Protocol, Sequence

import numpy as np

from repro.core.metric import MetricSpace
from repro.core.routing import FailureReason, RouteResult
from repro.overlay.policy import GreedyPolicy
from repro.util.rng import draw_fraction, spawn_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fastpath imports us)
    from repro.fastpath.snapshot import FastpathSnapshot

__all__ = ["MutationObserver", "OverlayMixin", "RoutingTable", "apply_fail_fraction", "dense_table"]

#: ``(indptr, neighbor_labels, edge_class)``: one CSR row per member label,
#: in ascending label order, entries in the scalar rule's candidate order;
#: ``edge_class`` is ``None`` for untiered tables.
RoutingTable = tuple[np.ndarray, np.ndarray, "np.ndarray | None"]


class MutationObserver(Protocol):
    """What a table overlay tells its observer (the graph's hook names)."""

    def on_fail_node(self, label: int) -> None: ...

    def on_revive_node(self, label: int) -> None: ...

    def on_fail_long_link(self, source: int, target: int) -> None: ...

    def on_revive_long_link(self, source: int, target: int) -> None: ...

    def on_rebuild(self) -> None: ...


def apply_fail_fraction(
    overlay: Any,
    fraction: float,
    seed: int,
    stream: str,
) -> list[int]:
    """Fail a uniformly random fraction of an overlay's live members.

    The overlays' shared victim draw: candidates are the live labels, and
    :func:`~repro.util.rng.draw_fraction` picks ``fraction`` of them from
    ``spawn_rng(seed, stream)``.  Used by :class:`OverlayMixin` and by
    overlays with their own liveness state
    (:class:`~repro.core.network.P2PNetwork`).
    """
    candidates = list(overlay.labels())
    rng = spawn_rng(seed, stream)
    victims = [candidates[int(i)] for i in draw_fraction(rng, len(candidates), fraction)]
    for victim in victims:
        overlay.fail_node(victim)
    return victims


class OverlayMixin:
    """Liveness, failures, scalar routing, and snapshot compilation."""

    #: Supplied by the concrete overlay (typically dataclass fields).
    space: MetricSpace
    hop_limit: int

    #: Label of the RNG stream ``fail_fraction`` draws from; subclasses keep
    #: their historical stream names so seeded runs reproduce exactly.
    failure_stream: str = "overlay-failures"

    #: ``kind`` tag stamped on compiled snapshots (documentation/repr only
    #: for protocol snapshots — the attached policy owns the arithmetic).
    snapshot_kind: str = "overlay"

    #: The single mutation observer.  A class-level default rather than
    #: ``_init_members`` state, so a membership rebuild keeps it attached.
    _observer: MutationObserver | None = None

    # ------------------------------------------------------------------ #
    # Mutation observation
    # ------------------------------------------------------------------ #

    @property
    def observer(self) -> MutationObserver | None:
        """The attached mutation observer, or ``None``."""
        return self._observer

    def set_observer(self, observer: MutationObserver | None) -> None:
        """Attach (or with ``None`` detach) the single mutation observer.

        Raises
        ------
        ValueError
            When an observer is already attached (mutations must not be
            double-recorded; detach the old one first).
        """
        if observer is not None and self._observer is not None:
            raise ValueError("overlay already has a mutation observer attached")
        self._observer = observer

    # ------------------------------------------------------------------ #
    # Membership state (subclasses call this once from __post_init__)
    # ------------------------------------------------------------------ #

    def _init_members(self, labels: Iterable[int]) -> None:
        """Set up the member-label array and the all-alive mask."""
        members = np.asarray(sorted(int(label) for label in labels), dtype=np.int64)
        if members.size and np.any(members[1:] == members[:-1]):
            raise ValueError("member labels must be distinct")
        self._member_labels = members
        self._alive = np.ones(members.size, dtype=bool)
        # Dead (holder, target) table entries.  Reset here deliberately: a
        # membership rebuild (e.g. Chord's stabilize re-initialising over the
        # live set) draws fresh links, and fresh links are healthy.
        self._dead_edges: set[tuple[int, int]] = set()
        # Sorted distinct labels spanning exactly 0..n-1 are the identity
        # mapping, so liveness lookups can index directly.
        self._contiguous = bool(
            members.size and members[0] == 0 and members[-1] == members.size - 1
        )

    def _label_position(self, label: int) -> int | None:
        """Index of ``label`` in the member array, or ``None`` for non-members."""
        if self._contiguous:
            return int(label) if 0 <= label < self._member_labels.size else None
        position = int(np.searchsorted(self._member_labels, label))
        if position < self._member_labels.size and self._member_labels[position] == label:
            return position
        return None

    # ------------------------------------------------------------------ #
    # Liveness and failures (the formerly quadruplicated methods)
    # ------------------------------------------------------------------ #

    def labels(self, only_alive: bool = True) -> list[int]:
        """Member labels in ascending order, optionally live-only."""
        if only_alive:
            return [int(label) for label in self._member_labels[self._alive]]
        return [int(label) for label in self._member_labels]

    def is_alive(self, label: int) -> bool:
        """Whether ``label`` is a live member (``False`` for non-members)."""
        position = self._label_position(label)
        return bool(self._alive[position]) if position is not None else False

    def fail_node(self, label: int) -> None:
        """Fail the member at ``label`` (no-op for non-members)."""
        position = self._label_position(label)
        if position is not None:
            self._alive[position] = False
            if self._observer is not None:
                self._observer.on_fail_node(int(label))

    def revive_node(self, label: int) -> None:
        """Revive the member at ``label`` (no-op for non-members)."""
        position = self._label_position(label)
        if position is not None:
            self._alive[position] = True
            if self._observer is not None:
                self._observer.on_revive_node(int(label))

    def fail_fraction(self, fraction: float, seed: int = 0) -> list[int]:
        """Fail a uniformly random fraction of the live members."""
        return apply_fail_fraction(self, fraction, seed, self.failure_stream)

    def fail_link(self, source: int, target: int) -> None:
        """Mark the table entry ``source -> target`` as unusable.

        Every parallel occurrence of the pair (Chord's finger *and*
        successor entries to the same node) shares the fate — the paper's
        link-failure model is per node pair, not per table slot.
        """
        pair = (int(source), int(target))
        self._dead_edges.add(pair)
        if self._observer is not None:
            self._observer.on_fail_long_link(*pair)

    def revive_link(self, source: int, target: int) -> None:
        """Mark the table entry ``source -> target`` as usable again."""
        pair = (int(source), int(target))
        self._dead_edges.discard(pair)
        if self._observer is not None:
            self._observer.on_revive_long_link(*pair)

    def link_is_alive(self, source: int, target: int) -> bool:
        """Whether the ``source -> target`` table entry is usable."""
        return (source, target) not in self._dead_edges

    def repair(self) -> None:
        """Revive every member and link, then run the protocol's repair hook.

        Observed as one bulk rebuild, not as a revive per member and link.
        """
        self._dead_edges.clear()
        self._alive[:] = True
        self._after_repair()
        if self._observer is not None:
            self._observer.on_rebuild()

    def _after_repair(self) -> None:
        """Hook for protocols that rebuild state on repair (Chord's tables)."""

    # ------------------------------------------------------------------ #
    # Scalar routing
    # ------------------------------------------------------------------ #

    def _point_of(self, label: int) -> Any:
        """Map a label to its metric-space point (identity by default).

        Torus overlays override this with their coordinate decoding so the
        default :meth:`next_hop` can measure ``space.distance``.
        """
        return label

    def next_hop(self, current: int, target: int) -> int | None:
        """The protocol's greedy rule: the next live node, or ``None`` if stuck.

        The default is the plain metric-greedy rule — the live neighbour
        strictly closest to the target under ``space.distance``, earliest
        neighbour winning ties — which is what CAN, the Kleinberg grid, and
        most user overlays need.  Protocols with a different rule (Chord's
        clockwise tiers, Plaxton's digit fixing) override it; the override
        must stay consistent with :meth:`greedy_policy` for batched parity.
        """
        target_point = self._point_of(target)
        best: int | None = None
        best_distance = self.space.distance(self._point_of(current), target_point)
        for neighbor in self.neighbors_of(current):
            if not self.is_alive(neighbor):
                continue
            if not self.link_is_alive(current, neighbor):
                continue
            distance = self.space.distance(self._point_of(neighbor), target_point)
            if distance < best_distance:
                best = neighbor
                best_distance = distance
        return best

    def route(self, source: int, target: int) -> RouteResult:
        """Greedy routing from ``source`` to ``target`` over live members.

        The loop order (arrival check, then hop budget, then one
        ``next_hop`` step) matches the batched router's per-query semantics
        exactly, which is what makes scalar-vs-batched parity checkable path
        for path.  (The pre-Overlay baseline loops gated the arrival check
        on ``hops < hop_limit``, so a query arriving on exactly the limit-th
        hop counted as HOP_LIMIT; here it succeeds — the boundary case is
        unreachable for the strictly-decreasing rules and vanishingly rare
        for Chord's successor crawl.)
        """
        if not self.is_alive(source):
            return RouteResult(success=False, hops=0, path=[source],
                               failure_reason=FailureReason.DEAD_SOURCE)
        if not self.is_alive(target):
            return RouteResult(success=False, hops=0, path=[source],
                               failure_reason=FailureReason.DEAD_TARGET)
        path = [source]
        hops = 0
        current = source
        limit = self.hop_limit
        while True:
            if current == target:
                return RouteResult(success=True, hops=hops, path=path)
            if hops >= limit:
                return RouteResult(success=False, hops=hops, path=path,
                                   failure_reason=FailureReason.HOP_LIMIT)
            following = self.next_hop(current, target)
            if following is None:
                return RouteResult(success=False, hops=hops, path=path,
                                   failure_reason=FailureReason.STUCK)
            current = following
            path.append(current)
            hops += 1

    # ------------------------------------------------------------------ #
    # Snapshot compilation
    # ------------------------------------------------------------------ #

    def neighbors_of(self, label: int) -> Sequence[int]:
        """The labels in ``label``'s routing table (protocol-specific)."""
        raise NotImplementedError

    def greedy_policy(self) -> GreedyPolicy:
        """The vectorized :class:`~repro.overlay.policy.GreedyPolicy`."""
        raise NotImplementedError

    def routing_table(self) -> RoutingTable:
        """Every member's routing table as one CSR table (see :data:`RoutingTable`).

        The default lays ``neighbors_of`` out one member at a time, all at
        edge class 0; the built-in protocols override it with bulk array
        builds.
        """
        rows = [list(self.neighbors_of(label)) for label in self._member_labels.tolist()]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        flat = np.fromiter((entry for row in rows for entry in row), dtype=np.int64, count=int(indptr[-1]))
        return indptr, flat, None

    def compile_snapshot(self) -> "FastpathSnapshot":
        """Compile the topology + current liveness into an array snapshot.

        The CSR arrays are :meth:`routing_table`'s, with each neighbour label
        mapped to its member row by one ``searchsorted`` (or taken as its own
        row when the members are exactly ``0 .. n-1``); a dead
        ``(holder, target)`` pair marks every entry it names unusable through
        one ``np.isin`` over ``holder_row * n + target_row`` keys.
        Per-vertex entry order equals the scalar rule's iteration order, so
        ``argmin`` over the policy's keys breaks ties exactly like
        ``next_hop`` — the hop-for-hop parity contract.  The snapshot is a
        frozen value: recompile after membership changes; pure liveness
        changes (node or link) can be expressed with
        :meth:`~repro.fastpath.snapshot.FastpathSnapshot.with_alive` /
        :meth:`~repro.fastpath.snapshot.FastpathSnapshot.with_edge_alive`.
        """
        # Imported here: repro.fastpath depends on repro.overlay.policy, so a
        # module-level import would create a cycle through the packages.
        from repro.fastpath.dtypes import label_dtype, narrow_indptr
        from repro.fastpath.snapshot import FastpathSnapshot

        member_labels = self._member_labels
        num_nodes = int(member_labels.size)
        indptr, flat, classes = self.routing_table()
        if self._contiguous:
            # Members 0..n-1: a label is its own row, and only the bounds
            # need checking.
            indices = flat
            bad = flat[(flat < 0) | (flat >= num_nodes)]
        else:
            indices = np.searchsorted(member_labels, flat)
            indices = np.clip(indices, 0, max(num_nodes - 1, 0))
            bad = flat[member_labels[indices] != flat]
        if bad.size:
            raise ValueError(
                f"routing tables point at non-member labels {bad[:5].tolist()}"
            )
        edge_alive: np.ndarray | None = None
        if self._dead_edges and flat.size:
            edge_alive = ~np.isin(
                np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr)) * num_nodes + indices,
                self._dead_edge_keys(),
            )
            if bool(edge_alive.all()):
                edge_alive = None
        # astype always copies here, so the frozen snapshot never aliases the
        # mutable member table; dtypes narrow per the fastpath contracts.
        return FastpathSnapshot(
            kind=self.snapshot_kind,
            space_size=self.space.size(),
            labels=member_labels.astype(label_dtype(self.space.size())),
            alive=self._alive.copy(),
            neighbor_indptr=narrow_indptr(indptr),
            neighbor_indices=indices.astype(np.int32),
            symmetric_neighbors=False,
            policy=self.greedy_policy(),
            edge_class=classes if classes is not None and np.any(classes) else None,
            edge_alive=edge_alive,
        )

    def _dead_edge_keys(self) -> np.ndarray:
        """``holder_row * n + target_row`` of every dead pair between members.

        Keyed on member rows rather than labels, so the key stays below
        ``n**2`` whatever the size of the label space; a pair naming a
        non-member can match no table entry and is dropped.  Called only
        when the overlay has members.
        """
        members = self._member_labels
        pairs = np.array(list(self._dead_edges), dtype=np.int64).reshape(-1, 2)
        rows = np.minimum(np.searchsorted(members, pairs), members.size - 1)
        known = np.all(members[rows] == pairs, axis=1)
        return rows[known, 0] * members.size + rows[known, 1]


def dense_table(matrix: np.ndarray) -> RoutingTable:
    """A :data:`RoutingTable` whose rows all have the width of ``matrix``'s."""
    rows, width = matrix.shape
    return np.arange(rows + 1, dtype=np.int64) * width, matrix.reshape(-1), None
