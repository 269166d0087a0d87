"""The virtual overlay graph.

The overlay is a directed graph whose vertices are metric-space points
occupied by live nodes.  Every vertex keeps two kinds of outgoing edges:

* **short links** to its immediate neighbours on either side (the paper
  assumes ``±1`` is always in the offset set, and the experiments assume the
  ring of immediate neighbours never fails), and
* **long links** chosen from a link distribution (or by the deterministic
  base-``b`` scheme).

The graph also records per-node and per-link liveness so that failure models
can knock out nodes or links without rebuilding the structure, and per-link
metadata (creation order) used by the Section-5 "replace the oldest link"
ablation.

The class is a plain in-memory adjacency structure — it knows nothing about
routing, failures, or construction policy; those live in
:mod:`repro.core.routing`, :mod:`repro.core.failures`, and
:mod:`repro.core.construction` respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.metric import MetricSpace

__all__ = ["LongLink", "OverlayNode", "OverlayGraph"]


@dataclass
class LongLink:
    """A single long-distance link.

    Attributes
    ----------
    target:
        Label of the link's sink vertex.
    created_at:
        Monotonically increasing creation stamp (used by the oldest-link
        replacement ablation and by maintenance bookkeeping).
    alive:
        Whether the link is usable.  Link-failure models flip this flag
        rather than removing the link, so a network can be "repaired" by
        resetting flags.
    """

    target: int
    created_at: int = 0
    alive: bool = True


@dataclass
class OverlayNode:
    """State kept for a single vertex of the overlay graph.

    Attributes
    ----------
    label:
        The metric-space point this node occupies.
    left, right:
        Labels of the immediate neighbours (predecessor and successor on the
        ring).  ``None`` when the node has no such neighbour (a lone node, or
        a freshly created node not yet wired in).
    long_links:
        Outgoing long-distance links, in creation order.
    alive:
        Whether the node is up.  Failed nodes remain in the structure so that
        experiments can distinguish "failed" from "never existed".
    """

    label: int
    left: int | None = None
    right: int | None = None
    long_links: list[LongLink] = field(default_factory=list)
    alive: bool = True

    def long_link_targets(self, only_alive: bool = True) -> list[int]:
        """Return the targets of this node's long links.

        Parameters
        ----------
        only_alive:
            When ``True`` (default) only links whose ``alive`` flag is set are
            returned.
        """
        return [
            link.target
            for link in self.long_links
            if link.alive or not only_alive
        ]

    def neighbors(self, only_alive_links: bool = True) -> list[int]:
        """Return all outgoing neighbour labels (short links first)."""
        result: list[int] = []
        if self.left is not None:
            result.append(self.left)
        if self.right is not None and self.right != self.left:
            result.append(self.right)
        result.extend(self.long_link_targets(only_alive=only_alive_links))
        return result

    def out_degree(self, only_alive_links: bool = True) -> int:
        """Number of outgoing links (short plus long)."""
        return len(self.neighbors(only_alive_links=only_alive_links))


class OverlayGraph:
    """Directed overlay graph embedded in a metric space.

    Parameters
    ----------
    space:
        The metric space the graph is embedded in.  Routing uses its
        ``distance`` method; ring spaces additionally wire immediate
        neighbours around the wrap-around point.

    Notes
    -----
    Vertex labels are the metric-space point labels (integers).  The graph
    may be *sparse* in the space: only occupied points appear as vertices.
    """

    def __init__(self, space: MetricSpace) -> None:
        self.space = space
        self._nodes: dict[int, OverlayNode] = {}
        self._creation_counter = 0
        # Reverse adjacency: target label -> list of (source label, LongLink).
        # Maintained by the link-mutation methods so that routing can use
        # incoming links as symmetric neighbour knowledge.
        self._incoming: dict[int, list[tuple[int, LongLink]]] = {}
        # Optional mutation observer (a repro.fastpath.delta.DeltaRecorder):
        # every mutator notifies it, so incremental snapshot mirrors can
        # replay churn without recompiling.  None costs one attribute check.
        self._observer = None
        # Bumped by every change to which vertices exist or are alive, so a
        # caller can cache a view of the live vertices and re-derive it only
        # when this counter has moved.
        self._liveness_version = 0

    # ------------------------------------------------------------------ #
    # Mutation observation
    # ------------------------------------------------------------------ #

    @property
    def observer(self):
        """The attached mutation observer, or ``None``."""
        return self._observer

    def set_observer(self, observer) -> None:
        """Attach (or with ``None`` detach) the single mutation observer.

        Raises
        ------
        ValueError
            When an observer is already attached (mutations must not be
            double-recorded; detach the old one first).
        """
        if observer is not None and self._observer is not None:
            raise ValueError("graph already has a mutation observer attached")
        self._observer = observer

    @property
    def liveness_version(self) -> int:
        """A counter that moves whenever a vertex is added, removed, failed or revived."""
        return self._liveness_version

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #

    def add_node(self, label: int) -> OverlayNode:
        """Add a vertex at ``label`` (idempotent) and return its node record.

        The node table keys on ``int(label)``, so NumPy integers store as
        Python ints.
        """
        if not self.space.contains(label):
            raise ValueError(f"label {label!r} is not a point of the metric space")
        label = int(label)
        if label not in self._nodes:
            self._nodes[label] = OverlayNode(label=label)
            self._liveness_version += 1
            if self._observer is not None:
                self._observer.on_add_node(label)
        return self._nodes[label]

    def remove_node(self, label: int) -> None:
        """Remove a vertex and all links *to* it from other vertices."""
        if label not in self._nodes:
            return
        if self._observer is not None:
            # One op for the whole removal: a mirror re-reads every row that
            # named the label, so the dropped links and cleared ring
            # pointers below are not recorded one by one.
            self._observer.on_remove_node(label)
        departing = self._nodes.pop(label)
        self._liveness_version += 1
        # Drop the departing node's own outgoing links from the reverse index.
        for link in departing.long_links:
            entries = self._incoming.get(link.target)
            if entries is not None:
                self._incoming[link.target] = [
                    entry for entry in entries if entry[1] is not link
                ]
        # Drop every link that pointed at the departed node.  Its holders,
        # dead links included, are exactly the reverse index's entries: only
        # this class writes the index or a link's target.
        holders = {source for source, _link in self._incoming.pop(label, [])}
        for holder in holders:
            node = self._nodes[holder]
            node.long_links = [link for link in node.long_links if link.target != label]
        # Ring pointers have no reverse index, and a dead node's stale
        # pointer may still name the departed label.
        for node in self._nodes.values():
            if node.left == label:
                node.left = None
            if node.right == label:
                node.right = None

    def has_node(self, label: int) -> bool:
        """Return ``True`` when a vertex exists at ``label`` (alive or not)."""
        return label in self._nodes

    def node(self, label: int) -> OverlayNode:
        """Return the node record at ``label``.

        Raises
        ------
        KeyError
            If no vertex exists at ``label``.
        """
        return self._nodes[label]

    def nodes(self) -> Iterator[OverlayNode]:
        """Iterate over all node records (alive and failed)."""
        return iter(self._nodes.values())

    def labels(self, only_alive: bool = False) -> list[int]:
        """Return all vertex labels, optionally restricted to live nodes."""
        if only_alive:
            return [label for label, node in self._nodes.items() if node.alive]
        return list(self._nodes)

    def __len__(self) -> int:
        """Total number of vertices (alive and failed)."""
        return len(self._nodes)

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #

    def is_alive(self, label: int) -> bool:
        """Return ``True`` when a vertex exists at ``label`` and is alive."""
        node = self._nodes.get(label)
        return node is not None and node.alive

    def fail_node(self, label: int) -> None:
        """Mark the vertex at ``label`` as failed (links to it remain in place)."""
        self._nodes[label].alive = False
        self._liveness_version += 1
        if self._observer is not None:
            self._observer.on_fail_node(label)

    def revive_node(self, label: int) -> None:
        """Mark the vertex at ``label`` as alive again."""
        self._nodes[label].alive = True
        self._liveness_version += 1
        if self._observer is not None:
            self._observer.on_revive_node(label)

    def alive_count(self) -> int:
        """Number of live vertices."""
        return sum(1 for node in self._nodes.values() if node.alive)

    # ------------------------------------------------------------------ #
    # Link management
    # ------------------------------------------------------------------ #

    def set_immediate_neighbors(self, label: int, left: int | None, right: int | None) -> None:
        """Set the short links of the vertex at ``label``."""
        node = self._nodes[label]
        node.left = left
        node.right = right
        if self._observer is not None:
            self._observer.on_set_immediate_neighbors(label, left, right)

    def add_long_link(self, source: int, target: int) -> LongLink:
        """Add a long link from ``source`` to ``target`` and return it.

        Self-links are rejected; duplicate links are allowed (the paper's
        sampling is with replacement), though builders typically avoid them.
        """
        if source == target:
            raise ValueError("cannot create a long link from a node to itself")
        node = self._nodes[source]
        link = LongLink(target=target, created_at=self._creation_counter)
        self._creation_counter += 1
        node.long_links.append(link)
        self._incoming.setdefault(target, []).append((source, link))
        if self._observer is not None:
            self._observer.on_add_long_link(source, target)
        return link

    def remove_long_link(self, source: int, target: int) -> bool:
        """Remove one long link ``source -> target``; return whether one existed."""
        node = self._nodes[source]
        for index, link in enumerate(node.long_links):
            if link.target == target:
                del node.long_links[index]
                entries = self._incoming.get(target)
                if entries is not None:
                    self._incoming[target] = [
                        entry for entry in entries if entry[1] is not link
                    ]
                if self._observer is not None:
                    self._observer.on_remove_long_link(source, target, link.alive)
                return True
        return False

    def fail_long_link(self, source: int, target: int) -> bool:
        """Disable one live long link ``source -> target``; return whether one was.

        The link keeps its slot (so :meth:`revive_long_link` can restore it);
        only its ``alive`` flag flips.  When several parallel links exist, the
        first live one is flipped — observationally equivalent to flipping any
        other, since parallel links are indistinguishable in routing.
        """
        node = self._nodes[source]
        for link in node.long_links:
            if link.target == target and link.alive:
                link.alive = False
                if self._observer is not None:
                    self._observer.on_fail_long_link(source, target)
                return True
        return False

    def revive_long_link(self, source: int, target: int) -> bool:
        """Re-enable one dead long link ``source -> target``; return whether one was."""
        node = self._nodes.get(source)
        if node is None:
            return False
        for link in node.long_links:
            if link.target == target and not link.alive:
                link.alive = True
                if self._observer is not None:
                    self._observer.on_revive_long_link(source, target)
                return True
        return False

    def redirect_long_link(self, source: int, old_target: int, new_target: int) -> bool:
        """Redirect one existing long link to a new target (Section 5 heuristic).

        The link keeps its slot but receives a fresh creation stamp (it is, in
        effect, a new link).  Returns ``False`` when no ``source -> old_target``
        link exists.
        """
        if source == new_target:
            return False
        node = self._nodes[source]
        for link in node.long_links:
            if link.target == old_target and link.alive:
                entries = self._incoming.get(old_target)
                if entries is not None:
                    self._incoming[old_target] = [
                        entry for entry in entries if entry[1] is not link
                    ]
                link.target = new_target
                link.created_at = self._creation_counter
                self._creation_counter += 1
                self._incoming.setdefault(new_target, []).append((source, link))
                if self._observer is not None:
                    self._observer.on_redirect_long_link(source, old_target, new_target)
                return True
        return False

    def incoming_sources(self, label: int, only_alive_links: bool = True) -> list[int]:
        """Return the labels of nodes with a long link pointing *at* ``label``.

        The reverse index tracks link objects, so links disabled by a
        link-failure model are excluded when ``only_alive_links`` is set.
        """
        entries = self._incoming.get(label, [])
        return [
            source
            for source, link in entries
            if (link.alive or not only_alive_links) and source in self._nodes
        ]

    def neighbors_of(
        self,
        label: int,
        only_alive_nodes: bool = True,
        only_alive_links: bool = True,
        include_incoming: bool = False,
    ) -> list[int]:
        """Return the neighbours of ``label``.

        Parameters
        ----------
        only_alive_nodes:
            Filter out neighbours whose node record is failed or missing.
        only_alive_links:
            Filter out long links whose ``alive`` flag is cleared.
        include_incoming:
            Also include nodes whose long links point at ``label``
            (symmetric neighbour knowledge, as in the paper's experiments
            where a link handshake makes both endpoints aware of each other).
        """
        node = self._nodes[label]
        candidates = node.neighbors(only_alive_links=only_alive_links)
        if include_incoming:
            seen = set(candidates)
            for source in self.incoming_sources(label, only_alive_links=only_alive_links):
                if source not in seen and source != label:
                    seen.add(source)
                    candidates.append(source)
        if not only_alive_nodes:
            return candidates
        return [c for c in candidates if self.is_alive(c)]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def long_link_lengths(self) -> list[int]:
        """Return the metric length of every live long link (for Figure 5)."""
        return [
            self.space.distance(node.label, link.target)
            for node in self._nodes.values()
            for link in node.long_links
            if link.alive
        ]

    # ------------------------------------------------------------------ #
    # Ring helpers
    # ------------------------------------------------------------------ #

    def wire_ring(self, labels: Iterable[int] | None = None) -> None:
        """Wire short links so that the given labels form a sorted ring.

        When ``labels`` is omitted, all current vertices are used.  The ring
        wraps around: the last label's right neighbour is the first label.
        """
        ordered = sorted(labels if labels is not None else self._nodes)
        if not ordered:
            return
        count = len(ordered)
        for index, label in enumerate(ordered):
            if count == 1:
                self.set_immediate_neighbors(label, None, None)
                continue
            # Routed through the mutator so an attached observer (delta
            # recorder) sees the rewiring.
            self.set_immediate_neighbors(
                label, ordered[index - 1], ordered[(index + 1) % count]
            )
