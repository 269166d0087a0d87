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

**Array state.**  The occupied labels are one sorted ``int64`` array, kept by
:meth:`HeuristicConstruction.add_point` and
:meth:`~HeuristicConstruction.remove_point`; ring neighbours, the
basin-of-attraction lookup and the in-link solicitation read it directly.
Link regeneration samples only *live* labels.  That view follows the graph:
:attr:`~repro.core.graph.OverlayGraph.liveness_version` moves on every
``add_node`` / ``remove_node`` / ``fail_node`` / ``revive_node``, called from
anywhere, and the view is re-derived only when it has moved.  Distances and
inverse power-law weights come from tables built once per ring size and
indexed by label difference; an arrival's sink weights are the label-0 row
rolled to its label.

**Stream contract.**  Every generator (``outgoing``, ``incoming`` and
``regenerate`` of the construction's :class:`~repro.util.rng.RandomSource`,
and the generator handed to a replacement policy) consumes exactly the draws
of the scalar heuristic this module implements, in the same order: a
weighted ``Generator.choice`` is computed here as NumPy computes it (the
inverse-CDF ``searchsorted`` of one ``random`` draw per sample, and the
redraw loop with first-occurrence dedupe without replacement), and each
holder asked for a redirect draws one ``random()``, plus one more when it
accepts, in holder order.  The graphs, the observer's op sequence and so the
scenario tables are those of the scalar loops, draw for draw.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.graph import LongLink, OverlayGraph
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


class _RingTables(NamedTuple):
    """Per-ring tables indexed by label difference.

    Entry ``k`` belongs to ring distance ``min(k, n - k)``, so indexing with
    ``a - b`` (negative differences wrap) gives the value between labels
    ``a`` and ``b``.  Each float is the one the scalar expression gives.
    """

    #: The ring distance itself.
    distance: np.ndarray
    #: An outgoing link's sink weight, ``d ** -1.0`` (0 at ``d = 0``).
    sink: np.ndarray
    #: ``max(d, 1) ** -1.0``, which is ``1.0 / max(d, 1)`` (the same correctly
    #: rounded reciprocal): the weight of a holder to solicit, of a target to
    #: regenerate and of a link a holder may redirect.
    inverse: np.ndarray


@functools.lru_cache(maxsize=8)
def _ring_tables(n: int) -> _RingTables:
    difference = np.arange(n)
    distance = np.minimum(difference, n - difference)
    as_float = distance.astype(float)
    with np.errstate(divide="ignore"):
        sink = np.where(as_float > 0, as_float**-1.0, 0.0)
    inverse = np.maximum(as_float, 1.0) ** -1.0
    for table in (distance, sink, inverse):
        table.flags.writeable = False
    return _RingTables(distance, sink, inverse)


def _choice(rng: np.random.Generator, p: np.ndarray, size: int | None = None):
    """``rng.choice(p.size, size, p=p)``: the same indices, the same draws.

    NumPy's weighted draw with replacement is the inverse CDF of one
    ``random`` double per sample; a ``size`` of ``None`` gives one index.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _choice_distinct(rng: np.random.Generator, p: np.ndarray, size: int) -> list[int]:
    """``rng.choice(p.size, size, replace=False, p=p)``: the same indices, the same draws.

    NumPy draws the missing count, zeroes the weights already taken, keeps the
    first occurrence of each new index in draw order, and repeats until it has
    ``size`` distinct indices.
    """
    found: list[int] = []
    while len(found) < size:
        draws = rng.random(size - len(found))
        if found:
            p = p.copy()
            p[found] = 0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        new = cdf.searchsorted(draws, side="right").tolist()
        found.extend(index for index in dict.fromkeys(new) if index not in found)
    return found


def _redirect_odds(
    graph: OverlayGraph, holders: list[int], newcomer: int
) -> tuple[list[list[LongLink]], list[np.ndarray], list[float], list[float]]:
    """The odds of each holder asked to redirect one of its links to ``newcomer``.

    Returns, per holder: its live long links; their weights
    ``1 / max(1, d)`` (slices of one gather over every holder's links);
    NumPy's sum of that slice, which is the scalar rule's ``weights.sum()``;
    and the probability ``w_new / (sum + w_new)`` that it redirects.
    """
    inverse = _ring_tables(graph.space.n).inverse
    links = [
        [link for link in graph.node(holder).long_links if link.alive]
        for holder in holders
    ]
    weights = inverse[
        np.fromiter(
            (link.target - holder for holder, row in zip(holders, links) for link in row),
            dtype=np.int64,
            count=sum(map(len, links)),
        )
    ]
    rows = []
    start = 0
    for row in links:
        rows.append(weights[start:start + len(row)])
        start += len(row)
    totals = [float(np.add.reduce(row)) for row in rows]
    accept = []
    for holder, total in zip(holders, totals):
        newcomer_weight = float(inverse[holder - newcomer])
        accept.append(newcomer_weight / (total + newcomer_weight))
    return links, rows, totals, accept


class LinkReplacementPolicy(abc.ABC):
    """Policy existing nodes use when a newcomer requests incoming links."""

    @abc.abstractmethod
    def choose_replacements(
        self,
        graph: OverlayGraph,
        holders: list[int],
        newcomer: int,
        rng: np.random.Generator,
    ) -> list[int | None]:
        """Return, per holder, the target of the link it redirects to ``newcomer``.

        Parameters
        ----------
        graph:
            The overlay graph.
        holders:
            The distinct existing nodes asked to redirect one of their links,
            in the order they decide (and draw from ``rng``).
        newcomer:
            The newly arrived node requesting incoming links.
        rng:
            Random generator for the accept/victim decisions.

        Returns
        -------
        list of int or None
            Aligned with ``holders``: the label of the existing link target to
            replace, or ``None`` when that holder declines to redirect.
        """


@dataclass
class InverseDistanceReplacement(LinkReplacementPolicy):
    """The paper's replacement rule (Section 5, following Sarshar et al.).

    The holder accepts the redirect with probability
    ``p_new / (p_1 + ... + p_k + p_new)`` and, if it accepts, chooses the
    victim among its existing links with probability proportional to
    ``p_i = 1 / d_i``.  Short (immediate-neighbour) links are never touched.
    """

    def choose_replacements(
        self,
        graph: OverlayGraph,
        holders: list[int],
        newcomer: int,
        rng: np.random.Generator,
    ) -> list[int | None]:
        links, weights, totals, accept = _redirect_odds(graph, holders, newcomer)
        victims: list[int | None] = []
        for row, holder_links in enumerate(links):
            if not holder_links or rng.random() >= accept[row]:
                victims.append(None)
                continue
            victim = _choice(rng, weights[row] / totals[row])
            victims.append(holder_links[int(victim)].target)
        return victims


@dataclass
class OldestLinkReplacement(LinkReplacementPolicy):
    """Ablation rule: accept with the same probability, but replace the oldest link.

    The paper reports that this strategy performs "almost as good" as the
    inverse-distance rule; the acceptance probability is kept identical so
    that only the victim-selection differs.
    """

    def choose_replacements(
        self,
        graph: OverlayGraph,
        holders: list[int],
        newcomer: int,
        rng: np.random.Generator,
    ) -> list[int | None]:
        links, _weights, _totals, accept = _redirect_odds(graph, holders, newcomer)
        victims: list[int | None] = []
        for row, holder_links in enumerate(links):
            if not holder_links or rng.random() >= accept[row]:
                victims.append(None)
                continue
            victims.append(min(holder_links, key=lambda link: link.created_at).target)
        return victims


@dataclass
class NeverReplace(LinkReplacementPolicy):
    """Degenerate policy that always declines; used to isolate the effect of step 3."""

    def choose_replacements(
        self,
        graph: OverlayGraph,
        holders: list[int],
        newcomer: int,
        rng: np.random.Generator,
    ) -> list[int | None]:
        return [None] * len(holders)


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
    #: The occupied labels, sorted.
    _labels: np.ndarray = field(
        init=False, default_factory=lambda: np.empty(0, dtype=np.int64), repr=False
    )
    #: The live ones among them, valid while the graph's liveness version is
    #: ``_live_version``.  ``_labels`` changes only right after the
    #: ``add_node`` / ``remove_node`` that moves that version.
    _live: np.ndarray = field(
        init=False, default_factory=lambda: np.empty(0, dtype=np.int64), repr=False
    )
    _live_version: int = field(init=False, default=-1, repr=False)

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
        index = int(self._labels.searchsorted(label))
        if index == self._labels.size or self._labels[index] != label:
            raise ValueError(f"point {label} was not added by this construction")
        self._labels = np.concatenate((self._labels[:index], self._labels[index + 1:]))
        if self._labels.size == 0:
            return affected
        if self._labels.size == 1:
            self.graph.set_immediate_neighbors(self._labels.item(0), None, None)
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

        Only the new node and its two ring neighbours are rewired.
        """
        index = int(self._labels.searchsorted(label))
        labels = self._labels = np.concatenate(
            (self._labels[:index], [label], self._labels[index:])
        )
        count = labels.size
        if count == 1:
            self.graph.set_immediate_neighbors(label, None, None)
            return
        left = labels.item(index - 1)
        right = labels.item((index + 1) % count)
        self.graph.set_immediate_neighbors(label, left, right)
        left_node = self.graph.node(left)
        self.graph.set_immediate_neighbors(left, left_node.left, label)
        right_node = self.graph.node(right)
        self.graph.set_immediate_neighbors(right, label, right_node.right)

    def _live_labels(self) -> np.ndarray:
        """The sorted occupied labels whose vertex exists and is alive."""
        version = self.graph.liveness_version
        if version != self._live_version:
            alive = np.fromiter(
                map(self.graph.is_alive, self._labels.tolist()),
                dtype=bool,
                count=self._labels.size,
            )
            self._live = self._labels[alive]
            self._live_version = version
        return self._live

    def _generate_outgoing_links(self, label: int) -> None:
        """Step 1: sample ideal sinks and attach links to their basin owners."""
        if self._labels.size < 2:
            return
        rng = self._random.stream("outgoing")
        # The sink weights centred at ``label``: np.roll of the table, in one copy.
        table = _ring_tables(self.space.n).sink
        split = self.space.n - label
        weights = np.concatenate((table[split:], table[:split]))
        sinks = _choice(rng, weights / weights.sum(), self.links_per_node)
        attached: set[int] = set()
        for actual in self._closest_occupied(sinks, exclude=label):
            if actual in attached:
                continue
            attached.add(actual)
            self.graph.add_long_link(label, actual)

    def _solicit_incoming_links(self, label: int) -> None:
        """Steps 2–3: estimate in-degree and ask existing nodes to redirect links."""
        if self._labels.size < 2:
            return
        rng = self._random.stream("incoming")
        incoming_estimate = int(rng.poisson(self.links_per_node))
        if incoming_estimate <= 0:
            return

        others = self._labels[self._labels != label]
        weights = _ring_tables(self.space.n).inverse[others - label]
        chosen = _choice_distinct(
            rng, weights / weights.sum(), min(incoming_estimate, others.size)
        )
        holders = others[chosen].tolist()
        # Holders are distinct and a redirect rewrites only its own holder's
        # links, so every decision can be taken before the first redirect.
        victims = self.replacement_policy.choose_replacements(
            self.graph, holders, label, rng
        )
        for holder, victim in zip(holders, victims):
            if victim is None:
                continue
            if label in self.graph.node(holder).long_link_targets():
                continue
            self.graph.redirect_long_link(holder, victim, label)

    def _closest_occupied(self, points: np.ndarray, exclude: int) -> list[int]:
        """Return the occupied point closest to each of ``points`` (basin-of-attraction rule).

        Needs at least two occupied labels.  One ``searchsorted`` places every
        point; the labels either side of it are the only candidates that can
        be nearest, so a point whose two neighbours are at different distances
        (or which is itself occupied) is settled by ring arithmetic.  A tie,
        or an excluded neighbour, goes to :meth:`_walk_candidates`.
        """
        labels = self._labels
        count = labels.size
        distance = _ring_tables(self.space.n).distance
        owners = []
        for point, at in zip(points.tolist(), labels.searchsorted(points).tolist()):
            left, right = labels.item(at - 1), labels.item(at % count)
            if exclude != left and exclude != right:
                to_left, to_right = distance.item(left - point), distance.item(right - point)
                if to_left != to_right:
                    owners.append(left if to_left < to_right else right)
                    continue
            elif right == point != exclude:
                owners.append(right)
                continue
            owners.append(self._walk_candidates(point, at, exclude))
        return owners

    def _walk_candidates(self, point: int, at: int, exclude: int) -> int:
        """The basin owner of ``point`` among the candidate slots around sorted position ``at``.

        The candidate-index set is ``{at - 1, at, at + 1} | {0, count - 1}``
        (mod ``count``), walked in the set's own iteration order; the first of
        the nearest candidates wins a tie.
        """
        labels = self._labels
        count = labels.size
        distance = _ring_tables(self.space.n).distance
        slots = {(at - 1) % count, at % count, (at + 1) % count}
        slots.update({0, count - 1})
        # Every ring distance is below n, so the first candidate always wins.
        best, best_distance = -1, self.space.n
        for slot in slots:
            candidate = labels.item(slot)
            if candidate == exclude:
                continue
            candidate_distance = distance.item(candidate - point)
            if candidate_distance < best_distance:
                best, best_distance = candidate, candidate_distance
        return best

    def _sample_existing_target(self, source: int) -> int | None:
        """Sample one *live* occupied point with probability proportional to 1/d(source, .).

        Used by link regeneration after failures, so dead (but not yet excised)
        points must not be chosen as replacement targets.
        """
        live = self._live_labels()
        others = live[live != source]
        if others.size == 0:
            return None
        rng = self._random.stream("regenerate")
        weights = _ring_tables(self.space.n).inverse[others - source]
        return int(others[_choice(rng, weights / weights.sum())])


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
