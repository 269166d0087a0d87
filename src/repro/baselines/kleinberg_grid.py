"""Kleinberg small-world grid baseline (Kleinberg, STOC 2000).

Nodes sit at every point of a ``side x side`` torus; each node links to its
four grid neighbours and to ``links_per_node`` long-range contacts drawn with
probability proportional to ``d^-2`` (the harmonic case, Kleinberg's optimum
in two dimensions).  Greedy routing forwards to the neighbour closest to the
target in L1 torus distance.

The paper (Section 2) describes its own construction as a generalisation of
Kleinberg's; this baseline lets the experiments show the effect of dimension.
The effect of the exponent is studied on the paper's own ring
(``ablation-exponent``).

As an :class:`~repro.overlay.Overlay`, the grid compiles into a snapshot
executed by :class:`~repro.overlay.policy.TorusGreedyPolicy`, hop-for-hop
identical to the scalar ``route()``.

The contacts are stored as CSR arrays and drawn stream-exactly: every node's
draw is the one a per-node ``Generator.choice(n, size=links_per_node, p=...)``
on the ``"kleinberg-contacts"`` stream would make, in label order.  All the
uniforms come from one ``random((n, links_per_node))`` call (``choice`` draws
its uniforms the same way), and the per-node inverse CDF is computed in row
chunks of a few MB with ``choice``'s exact float steps: ``p = w / w.sum()``,
``cdf = p.cumsum()``, ``cdf /= cdf[-1]``, then a right-sided search.  A node's
weights are the ``d^-2`` table of torus offsets rolled to its position, so
only the offset table is ever raised to a power.  The draw is still
``O(n^2)`` arithmetic: each node's distribution spans every other node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.metric import TorusMetric
from repro.overlay.mixin import OverlayMixin, RoutingTable
from repro.overlay.policy import TorusGreedyPolicy
from repro.util.rng import spawn_rng
from repro.util.validation import ensure_positive

__all__ = ["KleinbergGridNetwork"]

#: Entries per row chunk of the contact draw's ``(rows, n)`` float temporaries
#: (1 MB each), so the chunk height follows from ``n``.
_CHUNK_ENTRIES = 1 << 17


@dataclass
class KleinbergGridNetwork(OverlayMixin):
    """A two-dimensional Kleinberg small-world torus.

    Parameters
    ----------
    side:
        Side length of the grid (``side * side`` nodes), at least 2: a
        one-node grid has no other node to draw a contact from.
    links_per_node:
        Number of long-range contacts per node (Kleinberg's q), drawn with
        clustering exponent 2, the optimum for a two-dimensional grid.
    seed:
        Seed for contact selection.
    """

    side: int
    links_per_node: int = 1
    seed: int = 0

    failure_stream = "kleinberg-failures"
    snapshot_kind = "torus"

    def __post_init__(self) -> None:
        if not self.side >= 2:
            raise ValueError(f"side must be at least 2, got {self.side!r}")
        ensure_positive(self.links_per_node, "links_per_node")
        self.space = TorusMetric(self.side, dimensions=2)
        self.size = self.side * self.side
        self.hop_limit = 8 * self.side + 64
        self._init_members(range(self.size))
        self._contact_indptr, self._contact_labels = self._draw_contacts()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def label_to_point(self, label: int) -> tuple[int, int]:
        """Flattened label -> (row, column)."""
        return (label // self.side, label % self.side)

    def point_to_label(self, point: tuple[int, int]) -> int:
        """(row, column) -> flattened label."""
        return (point[0] % self.side) * self.side + (point[1] % self.side)

    def _draw_contacts(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's long-range contacts as CSR arrays over the labels.

        Row ``label`` holds the distinct contacts drawn for it, ascending,
        itself excluded (the module docstring gives the exact draw).
        """
        side, n = self.side, self.size
        rng = spawn_rng(self.seed, "kleinberg-contacts")
        uniforms = rng.random((n, self.links_per_node))
        ring = np.minimum(np.arange(side), side - np.arange(side))
        distance = (ring[:, None] + ring[None, :]).astype(float)
        with np.errstate(divide="ignore"):
            offset_weights = np.where(distance > 0, distance**-2.0, 0.0)
        # windows[side - r, side - c] is the offset table rolled by (r, c):
        # entry (r2, c2) weighs the offset from (r, c) to (r2, c2).
        windows = sliding_window_view(np.tile(offset_weights, (2, 2)), (side, side))
        labels = np.arange(n)
        chosen = np.empty_like(uniforms, dtype=np.int64)
        chunk = max(1, _CHUNK_ENTRIES // n)
        for start in range(0, n, chunk):
            rows = labels[start : start + chunk]
            weights = windows[side - rows // side, side - rows % side].reshape(rows.size, n)
            cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
            cdf /= cdf[:, -1:]
            chosen[rows] = _searchsorted_rows(cdf, uniforms[rows])
        chosen.sort(axis=1)
        keep = chosen != labels[:, None]
        keep[:, 1:] &= chosen[:, 1:] != chosen[:, :-1]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return indptr, chosen[keep]

    def grid_matrix(self, labels: np.ndarray) -> np.ndarray:
        """The four lattice neighbours of each label: down, up, right, left."""
        labels = np.asarray(labels, dtype=np.int64)
        row, column = labels // self.side % self.side, labels % self.side
        return np.stack(
            [
                (row + 1) % self.side * self.side + column,
                (row - 1) % self.side * self.side + column,
                row * self.side + (column + 1) % self.side,
                row * self.side + (column - 1) % self.side,
            ],
            axis=1,
        )

    def grid_neighbors(self, label: int) -> list[int]:
        """The four lattice neighbours of ``label`` on the torus."""
        return self.grid_matrix(np.array([label]))[0].tolist()

    def contacts_of(self, label: int) -> list[int]:
        """``label``'s long-range contacts, ascending (``KeyError`` for non-members)."""
        row = self._label_position(label)
        if row is None:
            raise KeyError(label)
        return self._contact_labels[self._contact_indptr[row] : self._contact_indptr[row + 1]].tolist()

    def neighbors_of(self, label: int) -> list[int]:
        """Grid neighbours plus long-range contacts."""
        return self.grid_neighbors(label) + self.contacts_of(label)

    def routing_table(self) -> RoutingTable:
        """Each node's grid neighbours, then its contacts (``neighbors_of`` order)."""
        labels = self._member_labels
        holders = np.concatenate([np.repeat(labels, 4), np.repeat(labels, np.diff(self._contact_indptr))])
        entries = np.concatenate([self.grid_matrix(labels).reshape(-1), self._contact_labels])
        # A stable sort by holder keeps each row's grid entries before its contacts.
        order = np.argsort(holders, kind="stable")
        return self._contact_indptr + 4 * np.arange(labels.size + 1), entries[order], None

    # ------------------------------------------------------------------ #
    # Routing — the mixin's default metric-greedy next_hop (live neighbour
    # strictly closest under space.distance) is exactly Kleinberg's rule.
    # ------------------------------------------------------------------ #

    def _point_of(self, label: int) -> tuple[int, int]:
        return self.label_to_point(label)

    def greedy_policy(self) -> TorusGreedyPolicy:
        """Strictly decreasing L1 torus distance."""
        return TorusGreedyPolicy(side=self.side, dimensions=2)


def _searchsorted_rows(sorted_rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(sorted_rows[i], values[i], side="right")`` for every row ``i``.

    One vectorised bisection over all rows: ``lo`` converges on the first
    entry greater than the value.  Once ``lo == hi`` a row stays put.
    """
    width = sorted_rows.shape[1]
    rows = np.arange(sorted_rows.shape[0])[:, None]
    lo = np.zeros(values.shape, dtype=np.int64)
    hi = np.full(values.shape, width, dtype=np.int64)
    for _ in range(width.bit_length()):
        mid = (lo + hi) // 2
        right = sorted_rows[rows, np.minimum(mid, width - 1)] <= values
        lo = np.where(right & (lo < hi), mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo
