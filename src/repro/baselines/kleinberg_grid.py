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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import TorusMetric
from repro.overlay.mixin import OverlayMixin
from repro.overlay.policy import TorusGreedyPolicy
from repro.util.rng import spawn_rng
from repro.util.validation import ensure_positive

__all__ = ["KleinbergGridNetwork"]


@dataclass
class KleinbergGridNetwork(OverlayMixin):
    """A two-dimensional Kleinberg small-world torus.

    Parameters
    ----------
    side:
        Side length of the grid (``side * side`` nodes).
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
        ensure_positive(self.side, "side")
        ensure_positive(self.links_per_node, "links_per_node")
        self.space = TorusMetric(self.side, dimensions=2)
        self.size = self.side * self.side
        self.hop_limit = 8 * self.side + 64
        self._init_members(range(self.size))
        self._contacts: dict[int, list[int]] = {}
        self._build_contacts()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def label_to_point(self, label: int) -> tuple[int, int]:
        """Flattened label -> (row, column)."""
        return (label // self.side, label % self.side)

    def point_to_label(self, point: tuple[int, int]) -> int:
        """(row, column) -> flattened label."""
        return (point[0] % self.side) * self.side + (point[1] % self.side)

    def _build_contacts(self) -> None:
        rng = spawn_rng(self.seed, "kleinberg-contacts")
        labels = np.arange(self.size)
        rows, columns = labels // self.side, labels % self.side
        for label in range(self.size):
            row, column = self.label_to_point(label)
            row_diff = np.abs(rows - row)
            column_diff = np.abs(columns - column)
            distance = (
                np.minimum(row_diff, self.side - row_diff)
                + np.minimum(column_diff, self.side - column_diff)
            ).astype(float)
            with np.errstate(divide="ignore"):
                weights = np.where(distance > 0, distance**-2.0, 0.0)
            probabilities = weights / weights.sum()
            chosen = rng.choice(self.size, size=self.links_per_node, p=probabilities)
            self._contacts[label] = sorted(set(int(c) for c in chosen) - {label})

    def grid_neighbors(self, label: int) -> list[int]:
        """The four lattice neighbours of ``label`` on the torus."""
        row, column = self.label_to_point(label)
        return [
            self.point_to_label(((row + 1) % self.side, column)),
            self.point_to_label(((row - 1) % self.side, column)),
            self.point_to_label((row, (column + 1) % self.side)),
            self.point_to_label((row, (column - 1) % self.side)),
        ]

    def neighbors_of(self, label: int) -> list[int]:
        """Grid neighbours plus long-range contacts."""
        return self.grid_neighbors(label) + self._contacts[label]

    # ------------------------------------------------------------------ #
    # Routing — the mixin's default metric-greedy next_hop (live neighbour
    # strictly closest under space.distance) is exactly Kleinberg's rule.
    # ------------------------------------------------------------------ #

    def _point_of(self, label: int) -> tuple[int, int]:
        return self.label_to_point(label)

    def greedy_policy(self) -> TorusGreedyPolicy:
        """Strictly decreasing L1 torus distance."""
        return TorusGreedyPolicy(side=self.side, dimensions=2)
