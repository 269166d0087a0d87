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
hop-for-hop identical to the scalar ``route()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.metric import RingMetric
from repro.overlay.mixin import OverlayMixin
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
    successor_list_length:
        Length of the successor list each node keeps for fault tolerance
        (routing falls back to successors when all fingers overshoot or are
        dead).
    """

    bits: int
    members: list[int] | None = None
    successor_list_length: int = 4

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
        self._fingers: dict[int, list[int]] = {}
        self._successors: dict[int, list[int]] = {}
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

    def build_routing_tables(self) -> None:
        """(Re)build every member's finger table and successor list.

        The scalar reference implementation, kept for the identity test:
        :meth:`build_routing_tables_batched` produces identical tables with
        vectorized searchsorted sweeps and is what the overlay itself calls.
        """
        for label in self.members:
            fingers = []
            for i in range(self.bits):
                start = (label + (1 << i)) % self.size
                fingers.append(self.successor_of(start))
            self._fingers[label] = fingers
            successors = []
            cursor = label
            for _ in range(self.successor_list_length):
                cursor = self.successor_of((cursor + 1) % self.size)
                successors.append(cursor)
                if cursor == label:
                    break
            self._successors[label] = successors

    def build_routing_tables_batched(self) -> None:
        """Rebuild all tables as bulk array sweeps (identical to the scalar build).

        Fingers: one ``searchsorted`` over the ``(n, bits)`` start matrix.
        Successor lists: ``successor_list_length`` vectorized crawl steps,
        each advancing every member's cursor at once; a member that wraps
        back to itself deactivates (the scalar loop's ``break``).
        """
        labels = self._member_labels
        n = int(labels.size)
        size = self.size
        starts = (labels[:, None] + (1 << np.arange(self.bits, dtype=np.int64))[None, :]) % size
        idx = np.searchsorted(labels, starts)
        idx[idx == n] = 0
        finger_matrix = labels[idx]
        finger_lists = finger_matrix.tolist()
        self._fingers = dict(zip(labels.tolist(), finger_lists))

        cursor = labels.copy()
        active = np.ones(n, dtype=bool)
        columns: list[np.ndarray] = []
        for _ in range(self.successor_list_length):
            idx = np.searchsorted(labels, (cursor + 1) % size)
            idx[idx == n] = 0
            step = labels[idx]
            cursor = np.where(active, step, cursor)
            columns.append(np.where(active, cursor, -1))
            active &= cursor != labels
        successor_matrix = np.stack(columns, axis=1) if columns else np.empty((n, 0), np.int64)
        self._successors = {
            int(label): [entry for entry in row if entry >= 0]
            for label, row in zip(labels.tolist(), successor_matrix.tolist())
        }

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

    def next_hop(self, current: int, target: int) -> int | None:
        """Farthest live finger that does not overshoot the target, else a successor."""
        remaining = self.space.clockwise_distance(current, target)
        best: int | None = None
        best_advance = 0
        for finger in self._fingers[current]:
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
        for successor in self._successors[current]:
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
        entries = dict.fromkeys(neighbor for neighbor, _ in self.neighbor_entries(label))
        return list(entries)

    def neighbor_entries(self, label: int) -> Iterator[tuple[int, int]]:
        """Fingers at edge class 0, successors at class 1, self-entries dropped.

        Entry order matches :meth:`next_hop`'s iteration order; the class
        split lets :class:`~repro.overlay.policy.ChordGreedyPolicy` key the
        two tiers so fingers always win and the successor fallback picks the
        nearest admissible successor, exactly as the scalar rule does.
        """
        for finger in self._fingers[label]:
            if finger != label:
                yield finger, 0
        for successor in self._successors[label]:
            if successor != label:
                yield successor, 1

    def greedy_policy(self) -> ChordGreedyPolicy:
        """The one-sided clockwise rule over this ring."""
        return ChordGreedyPolicy(size=self.size)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def average_table_size(self) -> float:
        """Average number of distinct routing entries per node."""
        total = 0
        for label in self.members:
            entries = set(self._fingers[label]) | set(self._successors[label])
            entries.discard(label)
            total += len(entries)
        return total / len(self.members)

    def expected_hops(self) -> float:
        """Chord's textbook expected hop count, ``0.5 * log2(n)``."""
        return 0.5 * math.log2(max(2, len(self.members)))
