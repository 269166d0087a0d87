"""Static overlay-graph builders.

A *builder* produces a fully wired :class:`~repro.core.graph.OverlayGraph`
in one shot, as the paper does for its routing experiments ("the network is
set up afresh" in Section 6).  Dynamic, incremental construction — the
Section-5 heuristic where nodes arrive one at a time and existing nodes
redirect links — lives in :mod:`repro.core.construction`.

Three builders are provided:

* :class:`RandomGraphBuilder` — each node links to its immediate neighbours
  plus ``links_per_node`` long-distance neighbours sampled from the
  :class:`~repro.core.distributions.InversePowerLawDistribution`
  (Theorems 12/13).
* :class:`DeterministicGraphBuilder` — the base-``b`` digit scheme
  (Theorems 14/16).
* The random builder accepts an optional *presence probability* so that only
  a random subset of grid points is occupied, reproducing the "binomially
  distributed nodes" model of Section 4.3.4.1 in which absent points are
  skipped and links are drawn conditioned on existence.

Both build on a :class:`~repro.core.metric.RingMetric`, the space of every
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distributions import DeterministicBaseBOffsets, InversePowerLawDistribution
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.util.rng import spawn_rng
from repro.util.validation import ensure_positive, ensure_probability

__all__ = [
    "BuildResult",
    "RandomGraphBuilder",
    "DeterministicGraphBuilder",
    "build_ideal_network",
    "sample_present_points",
]


@dataclass
class BuildResult:
    """Outcome of a graph build.

    Attributes
    ----------
    graph:
        The wired overlay graph.
    present_labels:
        Sorted list of the point labels actually occupied by nodes.
    links_per_node:
        The *requested* number of long links per node (the realised number may
        be lower when duplicates were dropped or targets were absent).
    """

    graph: OverlayGraph
    present_labels: list[int]
    links_per_node: int


def sample_present_points(
    n: int,
    presence_probability: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return a boolean presence mask over ``n`` grid points.

    Each point is occupied independently with ``presence_probability``
    (Section 4.3.4.1's binomial node placement).  The mask is guaranteed to
    contain at least two present points so that a non-trivial graph exists;
    if the random draw leaves fewer, the first points are forced present.
    """
    ensure_probability(presence_probability, "presence_probability")
    if presence_probability >= 1.0:
        return np.ones(n, dtype=bool)
    mask = rng.random(n) < presence_probability
    if mask.sum() < 2:
        mask[:2] = True
    return mask


@dataclass
class RandomGraphBuilder:
    """Builds the paper's randomized overlay in one shot.

    Every occupied point is wired to its immediate live neighbours on the ring
    and to ``links_per_node`` long-distance neighbours sampled from
    the inverse power law with ``exponent``.  With some points unoccupied the
    draw is the paper's Section 4.3.4.1 model, "links to existing nodes
    only": sinks are drawn among the occupied points, never the source.

    Parameters
    ----------
    space:
        Ring of size ``n``.
    exponent:
        Power-law exponent of the long-link distribution (the paper's 1).
    links_per_node:
        Number of long-distance links per node (the paper's ``l``).
    presence_probability:
        Probability that each grid point hosts a node (1.0 = fully populated).
    seed:
        Base seed for all sampling.
    """

    space: RingMetric
    exponent: float = 1.0
    links_per_node: int = 1
    presence_probability: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        ensure_positive(self.links_per_node, "links_per_node")
        ensure_probability(self.presence_probability, "presence_probability")
        if not isinstance(self.space, RingMetric):
            raise TypeError(
                f"RandomGraphBuilder requires a RingMetric, got {type(self.space).__name__}"
            )
        self._distribution = InversePowerLawDistribution(
            self.space.size(), exponent=self.exponent
        )

    def build(self) -> BuildResult:
        """Construct and return the overlay graph."""
        n = self.space.size()
        presence_rng = spawn_rng(self.seed, "presence")
        link_rng = spawn_rng(self.seed, "links")

        present = sample_present_points(n, self.presence_probability, presence_rng)
        present_labels = [int(label) for label in np.flatnonzero(present)]

        graph = OverlayGraph(self.space)
        for label in present_labels:
            graph.add_node(label)
        graph.wire_ring(present_labels)

        if self.presence_probability >= 1.0:
            # Fully populated space: draw every node's targets in one batched
            # call.  The draw order (row-major over nodes, then link slots)
            # matches the per-node loop below, and the same call backs the
            # direct-to-CSR build (:func:`repro.fastpath.build_snapshot`), so
            # both build paths realise bit-identical networks at a fixed seed.
            targets_matrix = self._distribution.sample_neighbors_batch(
                np.asarray(present_labels, dtype=np.int64),
                self.links_per_node,
                link_rng,
            )
            for row, label in enumerate(present_labels):
                # Batched offsets are never zero: no target is its source.
                self._attach_targets(graph, label, (int(t) for t in targets_matrix[row]))
        else:
            for label in present_labels:
                targets = self._distribution.sample_neighbors(
                    label, self.links_per_node, link_rng, present=present
                )
                self._attach_targets(graph, label, targets)

        return BuildResult(
            graph=graph,
            present_labels=present_labels,
            links_per_node=self.links_per_node,
        )

    def _attach_targets(self, graph: OverlayGraph, label: int, targets) -> None:
        """Attach sampled targets in order, collapsing repeated samples.

        The paper samples with replacement, so a repeated target would only
        waste a link slot; one link per target matches storing a neighbour
        *set*.  The single copy of the duplicate-link rule: the direct-to-CSR
        build (:func:`repro.fastpath.build_snapshot`) mirrors this dedup
        exactly, which is what keeps the two build paths bit-identical.
        """
        seen: set[int] = set()
        for target in targets:
            if target not in seen:
                seen.add(target)
                graph.add_long_link(label, target)


@dataclass
class DeterministicGraphBuilder:
    """Builds the deterministic base-``b`` overlay of Theorems 14 and 16.

    Parameters
    ----------
    space:
        Ring of size ``n``; every grid point hosts a node.
    base:
        The base ``b >= 2``; smaller bases mean more links and faster routing.
    variant:
        ``"full"`` for the Theorem-14 digit scheme, ``"powers"`` for the
        Theorem-16 power-of-``b`` scheme.
    """

    space: RingMetric
    base: int = 2
    variant: str = "full"

    def __post_init__(self) -> None:
        if not isinstance(self.space, RingMetric):
            raise TypeError(
                f"DeterministicGraphBuilder requires a RingMetric, got {type(self.space).__name__}"
            )
        self.offsets_scheme = DeterministicBaseBOffsets(
            n=self.space.size(), base=self.base, variant=self.variant
        )

    def build(self) -> BuildResult:
        """Construct and return the overlay graph."""
        present_labels = list(range(self.space.size()))

        graph = OverlayGraph(self.space)
        for label in present_labels:
            graph.add_node(label)
        graph.wire_ring(present_labels)

        for label in present_labels:
            seen: set[int] = set()
            for target in self.offsets_scheme.neighbors(label):
                if target not in seen:
                    seen.add(target)
                    graph.add_long_link(label, target)

        return BuildResult(
            graph=graph,
            present_labels=present_labels,
            links_per_node=self.offsets_scheme.expected_link_count(),
        )


def build_ideal_network(
    n: int,
    links_per_node: int | None = None,
    seed: int = 0,
    exponent: float = 1.0,
) -> BuildResult:
    """Convenience function: the paper's standard experimental network.

    A ring of ``n`` points, each node linked to its immediate neighbours and
    to ``links_per_node`` long-distance neighbours drawn from the inverse
    power-law distribution with the given ``exponent`` (default 1).  When
    ``links_per_node`` is omitted it defaults to ``ceil(lg n)``, the value the
    paper uses in Section 6 (17 links for 2^17 nodes).
    """
    ensure_positive(n, "n")
    if links_per_node is None:
        links_per_node = max(1, int(np.ceil(np.log2(n))))
    space = RingMetric(n)
    builder = RandomGraphBuilder(
        space=space,
        exponent=exponent,
        links_per_node=links_per_node,
        seed=seed,
    )
    return builder.build()
