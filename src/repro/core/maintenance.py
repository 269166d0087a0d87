"""Self-maintenance: detecting and repairing damage to the overlay.

The paper argues (Section 2) that random graphs are attractive partly because
"most random structures require less work to maintain their much weaker
invariants", and that the repair mechanism's traffic can be amortised over
searches.  This module provides that repair mechanism:

* :class:`MaintenanceDaemon` scans a node's neighbourhood, drops links that
  point at dead nodes, regenerates replacements through the Section-5
  heuristic, and re-stitches the ring of immediate neighbours around departed
  nodes.
* :class:`MaintenanceReport` summarises what a repair pass did, so that
  experiments can report repair traffic alongside search traffic.

The daemon operates on a :class:`~repro.core.construction.HeuristicConstruction`
(that object owns the link-replacement policy and the sorted ring).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.construction import HeuristicConstruction
from repro.core.graph import OverlayGraph
from repro.telemetry.core import current as telemetry_current

__all__ = ["MaintenanceReport", "MaintenanceDaemon"]


@dataclass
class MaintenanceReport:
    """Summary of a repair pass.

    Attributes
    ----------
    dead_links_dropped:
        Long links removed because their target node was dead or missing.
    links_regenerated:
        Replacement long links created via the construction heuristic.
    ring_repairs:
        Immediate-neighbour pointers re-stitched around departed nodes.
    messages:
        Estimated message cost of the pass (one message per dropped link probe
        plus one search per regenerated link, using the regenerating node's
        hop count when available).
    """

    dead_links_dropped: int = 0
    links_regenerated: int = 0
    ring_repairs: int = 0
    messages: int = 0

    def merge(self, other: "MaintenanceReport") -> "MaintenanceReport":
        """Return a new report summing this one with ``other``."""
        return MaintenanceReport(
            dead_links_dropped=self.dead_links_dropped + other.dead_links_dropped,
            links_regenerated=self.links_regenerated + other.links_regenerated,
            ring_repairs=self.ring_repairs + other.ring_repairs,
            messages=self.messages + other.messages,
        )


@dataclass
class MaintenanceDaemon:
    """Periodic repair of a heuristically constructed network.

    Parameters
    ----------
    construction:
        The construction object owning the graph, ring ordering, and
        link-replacement policy.  Every dropped link is replaced with a fresh
        one drawn from the ideal distribution, as the paper suggests.
    """

    construction: HeuristicConstruction

    @property
    def graph(self) -> OverlayGraph:
        """The graph being maintained."""
        return self.construction.graph

    def repair_node(self, label: int) -> MaintenanceReport:
        """Repair the outgoing links of a single live node.

        Dropped links are removed through the graph's mutator (keeping the
        reverse index — and any attached
        :class:`~repro.fastpath.delta.DeltaRecorder` — consistent).
        """
        report = MaintenanceReport()
        graph = self.graph
        if not graph.is_alive(label):
            return report
        node = graph.node(label)
        dead_targets = [
            link.target for link in node.long_links if not graph.is_alive(link.target)
        ]
        for target in dead_targets:
            graph.remove_long_link(label, target)
            report.dead_links_dropped += 1
            report.messages += 1
        for _ in range(report.dead_links_dropped):
            new_target = self.construction.regenerate_link(label)
            if new_target is not None:
                report.links_regenerated += 1
                report.messages += 1
        return report

    def repair_all_batched(self) -> MaintenanceReport:
        """Repair every live node and re-stitch the ring; return the summed report.

        Rather than walk every live node's link list even when nothing is
        broken, the pass finds every dead-target link up front through the
        graph's reverse index (one scan for dead node records, then only
        *their* incoming lists) and repairs only the affected holders, in
        node-table order.  The regeneration RNG draws, the resulting graph
        and the report are those of a per-node :meth:`repair_node` walk
        followed by one ring re-stitch (``tests/unit/test_maintenance.py``
        keeps that walk as a frozen reference and pins the two together).
        This is the repair entry point the churn scenarios and the
        delta-emitting fastpath loop use: each drop/regenerate/restitch goes
        through a graph mutator, so an attached
        :class:`~repro.fastpath.delta.DeltaRecorder` captures the whole pass.
        """
        tel = telemetry_current()
        if tel is None:
            return self._repair_all_batched_impl()
        with tel.span("repair"):
            report = self._repair_all_batched_impl()
        tel.count("repair.passes")
        tel.count("repair.dead_links_found", report.dead_links_dropped)
        tel.count("repair.links_regenerated", report.links_regenerated)
        tel.count("repair.ring_repairs", report.ring_repairs)
        tel.count("repair.holders_touched", self._last_holders_touched)
        return report

    def _repair_all_batched_impl(self) -> MaintenanceReport:
        graph = self.graph
        affected_holders: set[int] = set()
        for node in graph.nodes():
            if node.alive:
                continue
            for holder in graph.incoming_sources(node.label, only_alive_links=False):
                if graph.is_alive(holder):
                    affected_holders.add(holder)
        self._last_holders_touched = len(affected_holders)
        report = MaintenanceReport()
        if affected_holders:
            for label in self.graph.labels(only_alive=True):
                if label in affected_holders:
                    report = report.merge(self.repair_node(label))
        report.ring_repairs += self._restitch_ring()
        return report

    def handle_departure(self, label: int) -> MaintenanceReport:
        """Process an explicit (graceful or detected) departure of ``label``.

        The departed node is removed from the construction; every node that
        lost a link to it regenerates a replacement.  A label that is not
        (or no longer) a member — e.g. the second half of a double
        departure — is a no-op returning an all-zero report.
        """
        report = MaintenanceReport()
        if not self.graph.has_node(label):
            return report
        affected = self.construction.remove_point(label)
        report.ring_repairs += 1
        for holder in affected:
            if not self.graph.is_alive(holder):
                continue
            dropped = self._drop_links_to(holder, label)
            report.dead_links_dropped += dropped
            report.messages += dropped
            for _ in range(max(1, dropped)):
                new_target = self.construction.regenerate_link(holder)
                if new_target is not None:
                    report.links_regenerated += 1
                    report.messages += 1
        return report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _drop_links_to(self, holder: int, departed: int) -> int:
        """Remove ``holder``'s long links pointing at ``departed``; return the count."""
        dropped = 0
        while self.graph.remove_long_link(holder, departed):
            dropped += 1
        return dropped

    def _restitch_ring(self) -> int:
        """Re-wire immediate neighbours so that live nodes form a clean ring.

        Returns the number of pointer updates made.  Dead nodes are skipped
        over: each live node's ``left``/``right`` is set to the nearest live
        node in the corresponding direction.  Updates go through
        :meth:`OverlayGraph.set_immediate_neighbors`, so a delta recorder
        sees the whole restitch as a scatter of ring rewrites (applied
        vectorized on the snapshot side).
        """
        live = sorted(self.graph.labels(only_alive=True))
        updates = 0
        count = len(live)
        if count == 0:
            return 0
        for index, label in enumerate(live):
            node = self.graph.node(label)
            if count == 1:
                new_left, new_right = None, None
            else:
                new_left = live[(index - 1) % count]
                new_right = live[(index + 1) % count]
            if node.left != new_left or node.right != new_right:
                self.graph.set_immediate_neighbors(label, new_left, new_right)
                updates += 1
        return updates
