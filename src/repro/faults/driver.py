"""Replay a :class:`~repro.faults.schedule.FaultSchedule` against an overlay.

The driver is the adversary: it turns a fault timeline (data) into calls on
the overlay's own mutators, and knows nothing else about the system under
test.  Whoever wants to follow the mutations — an
:class:`~repro.scenarios.rounds.EngineSession` keeping an array mirror
current, a test holding a recorder — attaches to the overlay's mutation
observer, exactly as for any other caller of those mutators.

The eight event kinds are written once.  What differs between the two
overlay families is only how a node's links are enumerated and flipped, and
that sits behind a small link view (``nodes``, ``pairs``, ``fail_link``,
``revive_link``, ``out_degree``, ``stabilize``) chosen at construction:

* **graph-backed overlays** — an :class:`~repro.core.graph.OverlayGraph` (or
  any object exposing one as ``.graph``, e.g. the paper's power-law
  networks): the links are the long links, parallel ones included;
* **table-backed overlays** — :class:`~repro.overlay.mixin.OverlayMixin`
  protocols (Chord, CAN, Kleinberg, Plaxton): the links are the distinct
  ``(holder, target)`` routing-table entries.

After every event the optional ``on_event`` callback fires — which is how the
``degradation`` scenario measures routing along the timeline.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.core.graph import OverlayGraph
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.telemetry.core import current as telemetry_current

__all__ = ["FaultDriver"]


class _GraphLinks:
    """The long links of an :class:`OverlayGraph`."""

    #: Graph overlays repair through the maintenance daemon; the stabilize
    #: event is a table-overlay concept.
    stabilize = None

    def __init__(self, graph: OverlayGraph) -> None:
        self.nodes = graph
        self.fail_link = graph.fail_long_link
        self.revive_link = graph.revive_long_link

    def pairs(self, alive: bool) -> Iterator[tuple[int, int]]:
        """Links whose flag is ``alive`` when reached, in sorted-holder order."""
        for label in sorted(self.nodes.labels()):
            for link in self.nodes.node(label).long_links:
                if link.alive == alive:
                    yield label, link.target

    def out_degree(self, label: int) -> int:
        return self.nodes.node(label).out_degree()


class _TableLinks:
    """The distinct routing-table entries of a table-backed overlay."""

    def __init__(self, overlay: Any) -> None:
        self.nodes = overlay
        self.fail_link = overlay.fail_link
        self.revive_link = overlay.revive_link
        self.stabilize: Callable[[], None] | None = getattr(overlay, "stabilize", None)

    def pairs(self, alive: bool) -> Iterator[tuple[int, int]]:
        """Entries whose state is ``alive`` when reached, in sorted-holder order."""
        overlay = self.nodes
        for holder in overlay.labels(only_alive=False):
            for target in dict.fromkeys(overlay.neighbors_of(holder)):
                if target != holder and overlay.link_is_alive(holder, target) == alive:
                    yield holder, int(target)

    def out_degree(self, label: int) -> int:
        return len(dict.fromkeys(self.nodes.neighbors_of(label)))


class FaultDriver:
    """Deterministically replay a fault schedule against one overlay.

    Parameters
    ----------
    overlay:
        An :class:`~repro.core.graph.OverlayGraph`, an object exposing one as
        ``.graph``, or a table-based Overlay (anything with the mixin's
        liveness/link API).
    schedule:
        The timeline to replay.
    on_event:
        Optional ``callback(index, event, entry)`` fired after each event has
        mutated the overlay.
    """

    def __init__(
        self,
        overlay: Any,
        schedule: FaultSchedule,
        on_event: Callable[[int, FaultEvent, dict], None] | None = None,
    ) -> None:
        self.overlay = overlay
        self.schedule = schedule
        self.on_event = on_event
        graph = overlay if isinstance(overlay, OverlayGraph) else getattr(overlay, "graph", None)
        self._links = (
            _GraphLinks(graph) if isinstance(graph, OverlayGraph) else _TableLinks(overlay)
        )

    def run(self) -> dict:
        """Replay every event in order; return the per-event report.

        The report maps ``"events"`` to one entry dict per event (kind plus
        what it touched).
        """
        tel = telemetry_current()
        if tel is not None:
            tel.count("faults.runs")
        entries: list[dict] = []
        for index, event in enumerate(self.schedule.events):
            entry = self._apply(event, self.schedule.event_rng(index))
            if tel is not None:
                tel.count(f"faults.events.{event.kind}")
            entries.append(entry)
            if self.on_event is not None:
                self.on_event(index, event, entry)
        return {"events": entries}

    def _apply(self, event: FaultEvent, rng: np.random.Generator) -> dict:
        links = self._links
        # The node half (labels / is_alive / fail_node / revive_node / space)
        # is spelled the same way on a graph and on a table overlay.
        nodes: Any = links.nodes
        kind = event.kind
        entry: dict = {"kind": kind}
        if kind == "crash":
            victims = _draw(sorted(nodes.labels(only_alive=True)), event.level, rng)
            for label in victims:
                nodes.fail_node(label)
            entry["failed_nodes"] = len(victims)
        elif kind == "revive":
            victims = _draw(_dead(nodes), event.level, rng)
            for label in victims:
                nodes.revive_node(label)
            entry["revived_nodes"] = len(victims)
        elif kind == "link_fail":
            failed = 0
            # One draw per live link in sorted-holder order: the per-event
            # stream makes the victim set a pure function of (seed, index).
            for holder, target in links.pairs(alive=True):
                if rng.random() < event.level:
                    links.fail_link(holder, target)
                    failed += 1
            entry["failed_links"] = failed
        elif kind == "region_fail":
            size = nodes.space.size()
            span = int(round(event.level * size))
            start = int(rng.integers(size))
            failed = 0
            for holder, target in links.pairs(alive=True):
                if span > 0 and (holder - start) % size < span:
                    links.fail_link(holder, target)
                    failed += 1
            entry.update(region_start=start, region_span=span, failed_links=failed)
        elif kind == "targeted":
            ranked = sorted(
                nodes.labels(only_alive=True),
                key=lambda label: (-links.out_degree(label), label),
            )
            victims = ranked[: event.count]
            for label in victims:
                nodes.fail_node(label)
            entry["failed_nodes"] = len(victims)
        elif kind == "byzantine":
            entry["compromised"] = _draw(
                sorted(nodes.labels(only_alive=True)), event.level, rng
            )
        elif kind == "repair":
            # Everything dead comes back one mutator call at a time, so the
            # cost reported is exactly what was revived.
            dead = _dead(nodes)
            for label in dead:
                nodes.revive_node(label)
            revived_links = 0
            for holder, target in links.pairs(alive=False):
                links.revive_link(holder, target)
                revived_links += 1
            entry.update(revived_nodes=len(dead), revived_links=revived_links)
        elif kind == "stabilize":
            stabilize = links.stabilize
            if stabilize is None:
                entry["noop"] = True
            else:
                stabilize()
                entry["members"] = len(nodes.labels(only_alive=False))
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault event kind {kind!r}")
        return entry


def _dead(nodes: Any) -> list[int]:
    """The failed members, in ascending label order."""
    return sorted(
        label for label in nodes.labels(only_alive=False) if not nodes.is_alive(label)
    )


def _draw(candidates: list[int], level: float, rng: np.random.Generator) -> list[int]:
    """Draw a ``level`` fraction of ``candidates`` without replacement."""
    count = min(len(candidates), int(round(level * len(candidates))))
    if count <= 0:
        return []
    chosen = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[int(i)] for i in chosen]
