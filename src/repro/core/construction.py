"""Dynamic construction of the overlay graph (Section 5 of the paper).

The static builders in :mod:`repro.core.builder` wire the whole network at
once, which requires global knowledge.  Section 5 of the paper gives a fully
decentralised *heuristic* that maintains the inverse power-law link invariant
as nodes arrive one at a time:

1. A newly arrived point ``v`` samples the sinks of its ``l`` outgoing links
   from the inverse power-law distribution (exponent 1) over the whole metric
   space and routes a search towards each sink; if the sink is not occupied,
   ``v`` links to the closest occupied point instead (each existing point owns
   a *basin of attraction* proportional to its gap).
2. ``v`` then estimates the number of *incoming* links it ought to have by
   drawing from a Poisson distribution with rate ``l``, and picks that many
   existing points, again according to the inverse power law centred at ``v``.
3. Each chosen point ``u`` (with existing long links at distances
   ``d_1 .. d_k`` and the newcomer at distance ``d_{k+1}``) decides to
   redirect one of its links to ``v`` with probability
   ``p_{k+1} / sum_{j=1}^{k+1} p_j`` where ``p_i = 1 / d_i``; if it does, the
   victim link ``i`` is chosen with probability ``p_i / sum_{j=1}^{k} p_j``.
   The ablation alternative studied in the paper replaces the *oldest* link
   instead.

The same machinery is reused for link regeneration when a node departs (see
:mod:`repro.core.maintenance`).
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.util.rng import RandomSource
from repro.util.validation import ensure_positive

__all__ = [
    "LinkReplacementPolicy",
    "InverseDistanceReplacement",
    "OldestLinkReplacement",
    "NeverReplace",
    "HeuristicConstruction",
    "build_heuristic_network",
]


class LinkReplacementPolicy(abc.ABC):
    """Policy an existing node uses when a newcomer requests an incoming link."""

    @abc.abstractmethod
    def choose_replacement(
        self,
        graph: OverlayGraph,
        holder: int,
        newcomer: int,
        rng: np.random.Generator,
    ) -> int | None:
        """Return the target of the link to redirect to ``newcomer``.

        Parameters
        ----------
        graph:
            The overlay graph.
        holder:
            The existing node asked to redirect one of its links.
        newcomer:
            The newly arrived node requesting an incoming link.
        rng:
            Random generator for the accept/victim decisions.

        Returns
        -------
        int or None
            The label of the existing link target to replace, or ``None``
            when the holder declines to redirect any link.
        """


@dataclass
class InverseDistanceReplacement(LinkReplacementPolicy):
    """The paper's replacement rule (Section 5, following Sarshar et al.).

    The holder accepts the redirect with probability
    ``p_new / (p_1 + ... + p_k + p_new)`` and, if it accepts, chooses the
    victim among its existing links with probability proportional to
    ``p_i = 1 / d_i``.  Short (immediate-neighbour) links are never touched.
    """

    def choose_replacement(
        self,
        graph: OverlayGraph,
        holder: int,
        newcomer: int,
        rng: np.random.Generator,
    ) -> int | None:
        node = graph.node(holder)
        live_links = [link for link in node.long_links if link.alive]
        if not live_links:
            return None
        space = graph.space
        distances = np.array(
            [max(1, space.distance(holder, link.target)) for link in live_links],
            dtype=float,
        )
        newcomer_distance = max(1, space.distance(holder, newcomer))
        weights = 1.0 / distances
        newcomer_weight = 1.0 / newcomer_distance

        accept_probability = newcomer_weight / (weights.sum() + newcomer_weight)
        if rng.random() >= accept_probability:
            return None

        victim_probabilities = weights / weights.sum()
        victim_index = int(rng.choice(len(live_links), p=victim_probabilities))
        return live_links[victim_index].target


@dataclass
class OldestLinkReplacement(LinkReplacementPolicy):
    """Ablation rule: accept with the same probability, but replace the oldest link.

    The paper reports that this strategy performs "almost as good" as the
    inverse-distance rule; the acceptance probability is kept identical so
    that only the victim-selection differs.
    """

    def choose_replacement(
        self,
        graph: OverlayGraph,
        holder: int,
        newcomer: int,
        rng: np.random.Generator,
    ) -> int | None:
        node = graph.node(holder)
        live_links = [link for link in node.long_links if link.alive]
        if not live_links:
            return None
        space = graph.space
        distances = np.array(
            [max(1, space.distance(holder, link.target)) for link in live_links],
            dtype=float,
        )
        newcomer_distance = max(1, space.distance(holder, newcomer))
        weights = 1.0 / distances
        newcomer_weight = 1.0 / newcomer_distance

        accept_probability = newcomer_weight / (weights.sum() + newcomer_weight)
        if rng.random() >= accept_probability:
            return None

        oldest = min(live_links, key=lambda link: link.created_at)
        return oldest.target


@dataclass
class NeverReplace(LinkReplacementPolicy):
    """Degenerate policy that always declines; used to isolate the effect of step 3."""

    def choose_replacement(
        self,
        graph: OverlayGraph,
        holder: int,
        newcomer: int,
        rng: np.random.Generator,
    ) -> int | None:
        return None


@dataclass
class HeuristicConstruction:
    """Incrementally builds and maintains the overlay via the Section-5 heuristic.

    Parameters
    ----------
    space:
        The ring the nodes occupy (any other space is refused).
    links_per_node:
        The target number ``l`` of long links per node; link lengths follow
        the paper's inverse power law with exponent 1.
    replacement_policy:
        How existing nodes choose which link to redirect to a newcomer.
    seed:
        Base seed for all sampling.
    """

    space: RingMetric
    links_per_node: int
    replacement_policy: LinkReplacementPolicy = field(
        default_factory=InverseDistanceReplacement
    )
    seed: int = 0

    graph: OverlayGraph = field(init=False)
    _random: RandomSource = field(init=False, repr=False)
    _sorted_labels: list[int] = field(init=False, default_factory=list, repr=False)

    def __post_init__(self) -> None:
        ensure_positive(self.links_per_node, "links_per_node")
        if not isinstance(self.space, RingMetric):
            raise TypeError(
                f"HeuristicConstruction requires a RingMetric, got {type(self.space).__name__}"
            )
        self.graph = OverlayGraph(self.space)
        self._random = RandomSource(seed=self.seed)

    # ------------------------------------------------------------------ #
    # Arrival
    # ------------------------------------------------------------------ #

    def add_point(self, label: int) -> None:
        """Add a new occupied point to the network.

        Executes the three steps of the Section-5 heuristic: wire into the
        ring of immediate neighbours, generate outgoing long links (mapping
        absent sinks to their closest occupied point), then solicit incoming
        links from existing nodes.
        """
        if self.graph.has_node(label):
            raise ValueError(f"point {label} is already occupied")
        self.graph.add_node(label)
        self._insert_into_ring(label)
        self._generate_outgoing_links(label)
        self._solicit_incoming_links(label)

    def add_points(self, labels: list[int]) -> None:
        """Add several points in the given arrival order."""
        for label in labels:
            self.add_point(label)

    # ------------------------------------------------------------------ #
    # Departure
    # ------------------------------------------------------------------ #

    def remove_point(self, label: int) -> list[int]:
        """Remove an occupied point, repairing the ring around it.

        Returns the labels of nodes that lost a long link to the departed
        point; callers (e.g. the maintenance layer) may regenerate those links
        with :meth:`regenerate_link`.
        """
        if not self.graph.has_node(label):
            return []
        # The reverse link index gives the holders directly (O(in-degree)
        # instead of scanning every long link of every node); iterating the
        # node table preserves the exact order the old full scan produced,
        # which downstream regeneration RNG draws depend on.
        holders = set(
            self.graph.incoming_sources(label, only_alive_links=False)
        )
        holders.discard(label)
        affected = [node_label for node_label in self.graph.labels() if node_label in holders]
        departing = self.graph.node(label)
        left, right = departing.left, departing.right
        self.graph.remove_node(label)
        self._sorted_labels.remove(label)
        if not self._sorted_labels:
            return affected
        if len(self._sorted_labels) == 1:
            only = self._sorted_labels[0]
            self.graph.set_immediate_neighbors(only, None, None)
            return affected
        # Stitch the departed node's ring neighbours together.
        if left is not None and self.graph.has_node(left):
            left_node = self.graph.node(left)
            self.graph.set_immediate_neighbors(left, left_node.left, right)
        if right is not None and self.graph.has_node(right):
            right_node = self.graph.node(right)
            self.graph.set_immediate_neighbors(right, left, right_node.right)
        return affected

    def regenerate_link(self, holder: int) -> int | None:
        """Give ``holder`` one fresh long link drawn from the ideal distribution.

        Used by the repair path after a neighbour crashes: the paper notes
        that "the same heuristic can be used for regeneration of links when a
        node crashes".  Returns the new link's target, or ``None`` when no
        suitable target exists.
        """
        if not self.graph.has_node(holder):
            return None
        target = self._sample_existing_target(holder)
        if target is None or target == holder:
            return None
        existing = set(self.graph.node(holder).long_link_targets(only_alive=False))
        if target in existing:
            return None
        self.graph.add_long_link(holder, target)
        return target

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _insert_into_ring(self, label: int) -> None:
        """Insert ``label`` into the sorted ring of occupied points.

        Only the new node and its two ring neighbours are rewired, keeping the
        arrival cost logarithmic in the number of occupied points.
        """
        labels = self._sorted_labels
        index = bisect.bisect_left(labels, label)
        labels.insert(index, label)
        count = len(labels)
        if count == 1:
            self.graph.set_immediate_neighbors(label, None, None)
            return
        left = labels[index - 1]
        right = labels[(index + 1) % count]
        self.graph.set_immediate_neighbors(label, left, right)
        left_node = self.graph.node(left)
        self.graph.set_immediate_neighbors(left, left_node.left, label)
        right_node = self.graph.node(right)
        self.graph.set_immediate_neighbors(right, label, right_node.right)

    def _ring_distances(self, labels: np.ndarray, source: int) -> np.ndarray:
        """Ring distance from ``source`` to each of ``labels``, as floats."""
        diff = np.abs(labels - source)
        return np.minimum(diff, self.space.n - diff).astype(float)

    def _ideal_sink_weights(self, source: int) -> np.ndarray:
        """Unnormalised inverse power-law weight of every point of the ring."""
        distance = self._ring_distances(np.arange(self.space.n), source)
        with np.errstate(divide="ignore"):
            return np.where(distance > 0, distance**-1.0, 0.0)

    def _generate_outgoing_links(self, label: int) -> None:
        """Step 1: sample ideal sinks and attach links to their basin owners."""
        if len(self._sorted_labels) < 2:
            return
        rng = self._random.stream("outgoing")
        weights = self._ideal_sink_weights(label)
        total = weights.sum()
        if total <= 0:
            return
        probabilities = weights / total
        ideal_sinks = rng.choice(self.space.size(), size=self.links_per_node, p=probabilities)
        attached: set[int] = set()
        for ideal_sink in ideal_sinks:
            actual = self._closest_occupied(int(ideal_sink), exclude=label)
            if actual is None or actual == label or actual in attached:
                continue
            attached.add(actual)
            self.graph.add_long_link(label, actual)

    def _solicit_incoming_links(self, label: int) -> None:
        """Steps 2–3: estimate in-degree and ask existing nodes to redirect links."""
        if len(self._sorted_labels) < 2:
            return
        rng = self._random.stream("incoming")
        incoming_estimate = int(rng.poisson(self.links_per_node))
        if incoming_estimate <= 0:
            return

        others = np.array(self._sorted_labels, dtype=np.int64)
        others = others[others != label]
        weights = np.maximum(self._ring_distances(others, label), 1.0) ** -1.0
        probabilities = weights / weights.sum()
        draw_count = min(incoming_estimate, len(others))
        chosen = rng.choice(len(others), size=draw_count, replace=False, p=probabilities)

        for index in chosen:
            holder = int(others[int(index)])
            victim = self.replacement_policy.choose_replacement(
                self.graph, holder, label, rng
            )
            if victim is None:
                continue
            existing_targets = set(self.graph.node(holder).long_link_targets())
            if label in existing_targets:
                continue
            self.graph.redirect_long_link(holder, victim, label)

    def _closest_occupied(self, point: int, exclude: int | None = None) -> int | None:
        """Return the occupied point closest to ``point`` (basin-of-attraction rule).

        Uses binary search over the sorted occupied labels so each lookup is
        logarithmic; the wrap-around candidates are also considered.
        """
        labels = self._sorted_labels
        if not labels or (len(labels) == 1 and labels[0] == exclude):
            return None
        index = bisect.bisect_left(labels, point)
        candidate_indices = {
            (index - 1) % len(labels),
            index % len(labels),
            (index + 1) % len(labels),
        }
        # Added after the three neighbours: first-best ties follow the set's
        # iteration order.
        candidate_indices.update({0, len(labels) - 1})
        best: int | None = None
        best_distance: int | None = None
        for candidate_index in candidate_indices:
            candidate = labels[candidate_index]
            if candidate == exclude:
                continue
            distance = self.space.distance(candidate, point)
            if best_distance is None or distance < best_distance:
                best = candidate
                best_distance = distance
        return best

    def _sample_existing_target(self, source: int) -> int | None:
        """Sample one *live* occupied point with probability proportional to 1/d(source, .).

        Used by link regeneration after failures, so dead (but not yet excised)
        points must not be chosen as replacement targets.
        """
        is_alive = self.graph.is_alive
        others = np.fromiter(
            (
                label
                for label in self._sorted_labels
                if label != source and is_alive(label)
            ),
            dtype=np.int64,
        )
        if others.size == 0:
            return None
        rng = self._random.stream("regenerate")
        # Vectorized metric distance (the repair path samples thousands of
        # replacement links per churn round; a per-candidate space.distance
        # call here dominated whole repair passes).
        weights = np.maximum(self._ring_distances(others, source), 1.0) ** -1.0
        probabilities = weights / weights.sum()
        index = int(rng.choice(others.size, p=probabilities))
        return int(others[index])


def build_heuristic_network(
    n: int,
    occupied: int | None = None,
    links_per_node: int | None = None,
    replacement_policy: LinkReplacementPolicy | None = None,
    seed: int = 0,
) -> HeuristicConstruction:
    """Build a network incrementally with the Section-5 heuristic.

    Parameters
    ----------
    n:
        Size of the identifier space (a ring of ``n`` grid points).
    occupied:
        Number of occupied points (default: all ``n``, as in the paper's
        Figure-5 experiment where every grid point hosts a node).
    links_per_node:
        Long links per node (default ``ceil(lg n)``, matching the paper's
        "2^14 nodes with 14 links each").
    replacement_policy:
        Link-replacement rule (default: the inverse-distance rule).
    seed:
        Base seed; also controls the random arrival order and the choice of
        occupied points when ``occupied < n``.

    Returns
    -------
    HeuristicConstruction
        The construction object; its ``graph`` attribute holds the network.
    """
    ensure_positive(n, "n")
    if occupied is None:
        occupied = n
    if not 2 <= occupied <= n:
        raise ValueError(f"occupied must be in [2, {n}], got {occupied}")
    if links_per_node is None:
        links_per_node = max(1, int(np.ceil(np.log2(n))))
    if replacement_policy is None:
        replacement_policy = InverseDistanceReplacement()

    source = RandomSource(seed=seed)
    rng = source.stream("arrival-order")
    if occupied == n:
        labels = np.arange(n)
    else:
        labels = rng.choice(n, size=occupied, replace=False)
    order = np.array(labels, copy=True)
    rng.shuffle(order)

    construction = HeuristicConstruction(
        space=RingMetric(n),
        links_per_node=links_per_node,
        replacement_policy=replacement_policy,
        seed=seed,
    )
    construction.add_points([int(label) for label in order])
    return construction
