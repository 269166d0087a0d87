"""Chord baseline (Stoica et al., SIGCOMM 2001).

Chord places nodes on a modulo-``2^m`` identifier circle; every node keeps a
finger table whose ``i``-th entry is the first live node at clockwise distance
at least ``2^(i-1)``, and routing forwards greedily to the farthest finger
that does not overshoot the target (one-sided clockwise routing).  The paper
(Section 3) treats Chord as one instance of its general metric-space
framework; this implementation lets the experiments compare hop counts and
failure resilience against the inverse power-law overlay on the same ring.

As an :class:`~repro.overlay.Overlay`, Chord compiles into a two-tier
snapshot (fingers at edge class 0, successors at class 1) executed by
:class:`~repro.overlay.policy.ChordGreedyPolicy`: the batched routes are
hop-for-hop identical to the scalar ``route()``.  The tables are two
matrices with one row per member (``bits`` fingers; successor lists padded
with ``-1``), built in bulk and read by both the compiled table and the
scalar rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import RingMetric
from repro.overlay.mixin import OverlayMixin, RoutingTable
from repro.overlay.policy import ChordGreedyPolicy
from repro.util.validation import ensure_positive

__all__ = ["ChordNetwork"]


@dataclass
class ChordNetwork(OverlayMixin):
    """A Chord ring over the identifier space ``[0, 2^bits)``.

    Parameters
    ----------
    bits:
        Identifier length ``m``; the ring has ``2^m`` points.
    members:
        Node identifiers (a subset of the identifier space).  When ``None``
        every identifier hosts a node.
    """

    bits: int
    members: list[int] | None = None

    #: Length of the successor list each node keeps for fault tolerance
    #: (routing falls back to successors when all fingers overshoot or are
    #: dead).
    successor_list_length = 4
    failure_stream = "chord-failures"
    snapshot_kind = "chord"

    def __post_init__(self) -> None:
        ensure_positive(self.bits, "bits")
        self.size = 1 << self.bits
        self.space = RingMetric(self.size)
        self.hop_limit = 4 * self.bits + 32
        if self.members is None:
            self.members = list(range(self.size))
        self.members = sorted(set(int(m) % self.size for m in self.members))
        if len(self.members) < 2:
            raise ValueError("a Chord ring needs at least two members")
        self._init_members(self.members)
        self.build_routing_tables_batched()

    # ------------------------------------------------------------------ #
    # Table construction
    # ------------------------------------------------------------------ #

    def successor_of(self, point: int) -> int:
        """Return the first member at or clockwise after ``point`` (alive or not)."""
        index = int(np.searchsorted(self._member_labels, point % self.size))
        if index == len(self.members):
            index = 0
        return int(self._member_labels[index])

    def build_routing_tables_batched(self) -> None:
        """Rebuild all tables as bulk array sweeps.

        Fingers: one ``searchsorted`` over the ``(n, bits)`` start matrix —
        finger ``i`` of a member is the first member at or after
        ``label + 2**i``.  Successor lists: ``successor_list_length``
        vectorized crawl steps, each advancing every member's cursor at once;
        a member whose crawl wraps back to itself keeps that entry and stops,
        and the rest of its row is ``-1``.
        """
        labels = self._member_labels
        n = int(labels.size)
        size = self.size
        starts = (labels[:, None] + (1 << np.arange(self.bits, dtype=np.int64))[None, :]) % size
        idx = np.searchsorted(labels, starts)
        idx[idx == n] = 0
        self._finger_matrix = labels[idx]

        cursor = labels.copy()
        active = np.ones(n, dtype=bool)
        successors = np.full((n, self.successor_list_length), -1, dtype=np.int64)
        for column in range(self.successor_list_length):
            idx = np.searchsorted(labels, (cursor + 1) % size)
            idx[idx == n] = 0
            cursor = np.where(active, labels[idx], cursor)
            successors[active, column] = cursor[active]
            active &= cursor != labels
        self._successor_matrix = successors

    # ------------------------------------------------------------------ #
    # Membership and failures (liveness ops come from OverlayMixin)
    # ------------------------------------------------------------------ #

    def _after_repair(self) -> None:
        """Reviving everyone invalidates the tables; rebuild them."""
        self.build_routing_tables_batched()

    def stabilize(self) -> None:
        """Rebuild tables over the live membership (Chord's repair protocol outcome).

        Failed members are excised entirely: the surviving ring has only the
        live nodes as members, all alive, with fresh finger/successor tables.
        Observed as one bulk rebuild.
        """
        live = self.labels(only_alive=True)
        if len(live) < 2:
            return
        self.members = live
        self._init_members(live)
        self.build_routing_tables_batched()
        if self._observer is not None:
            self._observer.on_rebuild()

    # ------------------------------------------------------------------ #
    # Routing (the scalar loop comes from OverlayMixin.route)
    # ------------------------------------------------------------------ #

    def _table_row(self, label: int) -> tuple[list[int], list[int]]:
        """``label``'s fingers and successor list (``KeyError`` for non-members)."""
        row = self._label_position(label)
        if row is None:
            raise KeyError(label)
        successors = self._successor_matrix[row]
        return self._finger_matrix[row].tolist(), successors[successors >= 0].tolist()

    def next_hop(self, current: int, target: int) -> int | None:
        """Farthest live finger that does not overshoot the target, else a successor."""
        fingers, successors = self._table_row(current)
        remaining = self.space.clockwise_distance(current, target)
        best: int | None = None
        best_advance = 0
        for finger in fingers:
            if finger == current or not self.is_alive(finger):
                continue
            if not self.link_is_alive(current, finger):
                continue
            advance = self.space.clockwise_distance(current, finger)
            if 0 < advance <= remaining and advance > best_advance:
                best = finger
                best_advance = advance
        if best is not None:
            return best
        for successor in successors:
            if successor == current or not self.is_alive(successor):
                continue
            if not self.link_is_alive(current, successor):
                continue
            advance = self.space.clockwise_distance(current, successor)
            if 0 < advance <= remaining:
                return successor
        return None

    # ------------------------------------------------------------------ #
    # Overlay protocol: neighbour iteration and snapshot compilation
    # ------------------------------------------------------------------ #

    def neighbors_of(self, label: int) -> list[int]:
        """Distinct routing-table entries (fingers then successors, no self)."""
        fingers, successors = self._table_row(label)
        return [entry for entry in dict.fromkeys(fingers + successors) if entry != label]

    def routing_table(self) -> RoutingTable:
        """Fingers at edge class 0, successors at class 1, self-entries dropped.

        Entry order matches :meth:`next_hop`'s iteration order; the class
        split lets :class:`~repro.overlay.policy.ChordGreedyPolicy` key the
        two tiers so fingers always win and the successor fallback picks the
        nearest admissible successor, exactly as the scalar rule does.
        """
        table = np.concatenate([self._finger_matrix, self._successor_matrix], axis=1)
        keep = (table != self._member_labels[:, None]) & (table >= 0)
        tiers = np.repeat(np.array([0, 1], dtype=np.int8), [self.bits, self.successor_list_length])
        indptr = np.zeros(table.shape[0] + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return indptr, table[keep], np.broadcast_to(tiers, table.shape)[keep]

    def greedy_policy(self) -> ChordGreedyPolicy:
        """The one-sided clockwise rule over this ring."""
        return ChordGreedyPolicy(size=self.size)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def average_table_size(self) -> float:
        """Average number of distinct routing entries per node."""
        table = np.concatenate([self._finger_matrix, self._successor_matrix], axis=1)
        table = np.sort(np.where(table == self._member_labels[:, None], -1, table), axis=1)
        distinct = (table[:, 1:] != table[:, :-1]) & (table[:, 1:] >= 0)
        total = int(distinct.sum()) + int(np.count_nonzero(table[:, 0] >= 0))
        return total / len(self.members)
