"""CAN baseline (Ratnasamy et al., SIGCOMM 2001) — simplified d-dimensional torus.

CAN partitions a ``d``-dimensional coordinate space into zones, one per node,
and routes greedily through neighbouring zones; each node keeps ``O(d)`` state
and routing costs ``O(d * n^(1/d))`` hops.  This baseline models the common
simplification in which every node owns a unit hyper-cube cell of a
``side^d`` torus and neighbours are the ``2d`` adjacent cells: the state and
hop-count scaling are exactly CAN's, which is what the comparison experiments
need.

As an :class:`~repro.overlay.Overlay`, CAN compiles into a snapshot executed
by :class:`~repro.overlay.policy.TorusGreedyPolicy` (strictly decreasing L1
torus distance), hop-for-hop identical to the scalar ``route()``.  The zone
neighbours of every label come from one array function
(:meth:`CanNetwork.neighbor_matrix`), which both the compiled table and the
scalar ``neighbors_of`` read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import TorusMetric
from repro.overlay.mixin import OverlayMixin, RoutingTable, dense_table
from repro.overlay.policy import TorusGreedyPolicy
from repro.util.validation import ensure_positive

__all__ = ["CanNetwork"]


@dataclass
class CanNetwork(OverlayMixin):
    """A CAN-style d-dimensional torus of unit zones.

    Parameters
    ----------
    side:
        Number of zones along each dimension.
    dimensions:
        Number of dimensions ``d``.
    """

    side: int
    dimensions: int = 2

    failure_stream = "can-failures"
    snapshot_kind = "torus"

    def __post_init__(self) -> None:
        ensure_positive(self.side, "side")
        ensure_positive(self.dimensions, "dimensions")
        self.space = TorusMetric(self.side, dimensions=self.dimensions)
        self.size = self.side**self.dimensions
        self.hop_limit = self.dimensions * self.side * 4 + 64
        self._init_members(range(self.size))

    # ------------------------------------------------------------------ #
    # Coordinate helpers
    # ------------------------------------------------------------------ #

    def label_to_point(self, label: int) -> tuple[int, ...]:
        """Flattened label -> coordinate tuple (row-major)."""
        coordinates = []
        remaining = int(label)
        for _ in range(self.dimensions):
            coordinates.append(remaining % self.side)
            remaining //= self.side
        return tuple(reversed(coordinates))

    def point_to_label(self, point: tuple[int, ...]) -> int:
        """Coordinate tuple -> flattened label (row-major)."""
        label = 0
        for coordinate in point:
            label = label * self.side + (int(coordinate) % self.side)
        return label

    def neighbor_matrix(self, labels: np.ndarray) -> np.ndarray:
        """The ``2d`` zone neighbours of each label, one row per label.

        Columns run ``(axis 0, -1), (axis 0, +1), (axis 1, -1), ...``, axis 0
        being the most significant coordinate; a label outside the space is
        read modulo its size, as :meth:`label_to_point` reads it.
        """
        labels = np.asarray(labels, dtype=np.int64) % self.size
        columns = []
        for axis in range(self.dimensions):
            stride = self.side ** (self.dimensions - 1 - axis)
            coordinate = labels // stride % self.side
            for delta in (-1, 1):
                columns.append(labels + ((coordinate + delta) % self.side - coordinate) * stride)
        return np.stack(columns, axis=1)

    def neighbors_of(self, label: int) -> list[int]:
        """The ``2d`` zone neighbours of ``label`` on the torus."""
        return self.neighbor_matrix(np.array([label]))[0].tolist()

    def routing_table(self) -> RoutingTable:
        """Every zone's ``2d`` neighbours, in :meth:`neighbor_matrix` order."""
        return dense_table(self.neighbor_matrix(self._member_labels))

    # ------------------------------------------------------------------ #
    # Routing — the mixin's default metric-greedy next_hop (live neighbour
    # strictly closest under space.distance) is exactly CAN's rule.
    # ------------------------------------------------------------------ #

    def _point_of(self, label: int) -> tuple[int, ...]:
        return self.label_to_point(label)

    def greedy_policy(self) -> TorusGreedyPolicy:
        """Strictly decreasing L1 torus distance."""
        return TorusGreedyPolicy(side=self.side, dimensions=self.dimensions)

    def state_per_node(self) -> int:
        """CAN's ``O(d)`` routing state: the number of zone neighbours."""
        return 2 * self.dimensions
