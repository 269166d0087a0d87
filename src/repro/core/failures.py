"""Failure models: link failures, node failures, and adversarial behaviour.

The paper analyses three failure regimes:

* **Link failures** (Section 4.3.3) — every long-distance link is present
  independently with probability ``p``; the short links to immediate
  neighbours never fail, so a message is always deliverable (if slowly).
* **Node failures, binomial placement** (Section 4.3.4.1) — each grid point
  hosts a node with probability ``p`` and links are drawn only to existing
  nodes.  This case is handled at *build* time (see
  :class:`~repro.core.builder.RandomGraphBuilder`'s ``presence_probability``)
  because it changes which graph gets built, not which parts of it fail.
* **General node failures** (Sections 4.3.4.2 and 6) — the network is built
  first and then a fraction ``p`` of nodes fail, taking all their incident
  links with them.

Section 7 lists robustness against *Byzantine* behaviour as future work; we
implement a simple adversarial model in which compromised nodes stay alive but
misbehave during routing (dropping or deliberately misrouting messages), so
that the extension experiments have something concrete to measure.

All models are **non-destructive**: ``apply(graph)`` flips liveness flags on
the graph and returns a summary of what it touched, and ``repair(graph)``
undoes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import OverlayGraph
from repro.util.rng import draw_fraction, spawn_rng
from repro.util.validation import ensure_probability

__all__ = [
    "LinkFailureModel",
    "NodeFailureModel",
    "ByzantineModel",
    "ByzantineBehavior",
]


@dataclass
class LinkFailureModel:
    """Fail each long-distance link independently (Section 4.3.3).

    Each long link survives with probability ``presence_probability``; short
    links (immediate neighbours) are never touched, matching the paper's
    assumption that "the links to the immediate neighbours are always present".

    Parameters
    ----------
    presence_probability:
        Probability ``p`` that a long link remains alive.
    seed:
        Seed controlling which links fail.
    """

    presence_probability: float
    seed: int = 0
    #: (holder label, target label) pairs of the links the last apply failed.
    _failed: list[tuple[int, int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        ensure_probability(self.presence_probability, "presence_probability")

    def apply(self, graph: OverlayGraph) -> dict:
        rng = spawn_rng(self.seed, "link-failures")
        self._failed.clear()
        links = [(node.label, link.target) for node in graph.nodes() for link in node.long_links]
        # One random double per long link in graph iteration order — the draw
        # sequence seeded experiments depend on; keep it if refactoring.
        # random(k) yields the doubles of k successive random() calls, and
        # failing a link flips its flag without reordering any list.
        draws = rng.random(len(links))
        for index in np.flatnonzero(draws >= self.presence_probability).tolist():
            label, target = links[index]
            if graph.fail_long_link(label, target):
                self._failed.append((label, target))
        return {
            "model": "link-failure",
            "presence_probability": self.presence_probability,
            "total_long_links": len(links),
            "failed_links": len(self._failed),
        }

    def repair(self, graph: OverlayGraph) -> None:
        for label, target in self._failed:
            if graph.has_node(label):
                graph.revive_long_link(label, target)
        self._failed.clear()


@dataclass
class NodeFailureModel:
    """Fail nodes after the network is built (Sections 4.3.4.2 and 6).

    A *fraction* of the nodes is failed exactly: the experimental setup of
    Section 6, "a fraction p of the nodes fail".

    Parameters
    ----------
    failure_level:
        The fraction of failures, in [0, 1].
    protect:
        Labels that must never be failed (e.g. the source/destination pairs of
        a routing experiment, which the paper draws from the live nodes).
    seed:
        Seed controlling which nodes fail.
    """

    failure_level: float
    protect: frozenset[int] = frozenset()
    seed: int = 0
    _failed: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        ensure_probability(self.failure_level, "failure_level")
        self.protect = frozenset(self.protect)

    def apply(self, graph: OverlayGraph) -> dict:
        rng = spawn_rng(self.seed, "node-failures")
        self._failed.clear()
        candidates = [
            label for label in graph.labels(only_alive=True) if label not in self.protect
        ]
        for i in draw_fraction(rng, len(candidates), self.failure_level):
            label = candidates[int(i)]
            graph.fail_node(label)
            self._failed.append(label)
        return {
            "model": "node-failure",
            "failure_level": self.failure_level,
            "failed_nodes": len(self._failed),
            "alive_nodes": graph.alive_count(),
        }

    def repair(self, graph: OverlayGraph) -> None:
        for label in self._failed:
            if graph.has_node(label):
                graph.revive_node(label)
        self._failed.clear()

    @property
    def failed_labels(self) -> list[int]:
        """Labels failed by the most recent :meth:`apply` call."""
        return list(self._failed)


class ByzantineBehavior:
    """How a Byzantine node misbehaves during routing.

    ``DROP``     — silently discard every message it receives.
    ``MISROUTE`` — forward the message to its neighbour *farthest* from the
                   target instead of the closest.
    ``RANDOM``   — forward the message to a uniformly random neighbour.
    """

    DROP = "drop"
    MISROUTE = "misroute"
    RANDOM = "random"

    ALL = (DROP, MISROUTE, RANDOM)


@dataclass
class ByzantineModel:
    """Mark a fraction of nodes as Byzantine (paper Section 7, future work).

    Byzantine nodes stay alive (so ordinary failure detection does not help)
    but misbehave according to ``behavior``.  The model only *marks* nodes;
    the misbehaviour itself is interpreted by
    :class:`repro.core.byzantine.ByzantineAwareRouter`, which consults
    :attr:`compromised` when simulating each hop.

    Parameters
    ----------
    fraction:
        Fraction of live nodes to compromise.
    behavior:
        One of :class:`ByzantineBehavior`'s constants.
    seed:
        Seed controlling which nodes are compromised.
    """

    fraction: float
    behavior: str = ByzantineBehavior.DROP
    seed: int = 0
    compromised: set[int] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        ensure_probability(self.fraction, "fraction")
        if self.behavior not in ByzantineBehavior.ALL:
            raise ValueError(
                f"behavior must be one of {ByzantineBehavior.ALL}, got {self.behavior!r}"
            )

    def apply(self, graph: OverlayGraph) -> dict:
        rng = spawn_rng(self.seed, "byzantine")
        self.compromised.clear()
        candidates = graph.labels(only_alive=True)
        chosen = draw_fraction(rng, len(candidates), self.fraction)
        self.compromised.update(candidates[int(i)] for i in chosen)
        return {
            "model": "byzantine",
            "behavior": self.behavior,
            "compromised_nodes": len(self.compromised),
        }

    def repair(self, graph: OverlayGraph) -> None:
        self.compromised.clear()

    def is_compromised(self, label: int) -> bool:
        """Return ``True`` when the node at ``label`` is Byzantine."""
        return label in self.compromised


def failure_sweep_levels(maximum: float = 0.8, step: float = 0.1) -> list[float]:
    """Return the standard failure-level sweep used by the paper's Figure 6.

    The paper sweeps the fraction of failed nodes from 0 to 0.8 in steps of
    0.1 (Figure 7 extends to 0.9).  Floating-point rounding is cleaned up so
    the values are exact multiples of ``step``.
    """
    count = int(round(maximum / step))
    return [round(i * step, 10) for i in range(count + 1)]
