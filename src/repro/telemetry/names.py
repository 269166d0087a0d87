"""The central registry of telemetry metric names — the single source of truth.

Every counter, gauge, and histogram name the instrumentation layer emits is
declared here, once.  Two consumers keep the registry honest:

* the ``RPR002`` lint rule (:mod:`repro.devtools.rules.telemetry_names`)
  statically checks that every name string passed to a telemetry call in
  ``src/`` appears here, and that no registered name is
  orphaned (declared but never emitted);
* the README counter glossary is *generated* from this module
  (``python -m repro.devtools.readme --write README.md`` refreshes the block
  between the ``<!-- counter-glossary:begin/end -->`` markers), and a unit
  test asserts the committed README matches :func:`render_glossary`.

Dynamic name components (per-op kinds, worker pids, protocol names) are
declared with ``<placeholder>`` segments, e.g. ``refresh.ops.<kind>``; the
lint rule matches an f-string like ``f"refresh.ops.{kind}"`` against exactly
those placeholder segments, so a dynamic name can never silently bypass the
registry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "MetricName",
    "METRIC_NAMES",
    "find_metric",
    "metric_is_registered",
    "render_glossary",
]

_PLACEHOLDER = re.compile(r"^<[a-z_]+>$")


@dataclass(frozen=True)
class MetricName:
    """One registered metric: its dotted name, kind, emitter, and meaning."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    emitted_by: str
    description: str

    def segments(self) -> tuple[str, ...]:
        return tuple(self.name.split("."))


#: Every metric name the repository emits, grouped by family.
METRIC_NAMES: tuple[MetricName, ...] = (
    # -- route.* : BatchGreedyRouter ----------------------------------------
    MetricName("route.batches", "counter", "BatchGreedyRouter",
               "batched route calls issued"),
    MetricName("route.queries", "counter", "BatchGreedyRouter",
               "individual source/target queries routed"),
    MetricName("route.rounds", "counter", "BatchGreedyRouter",
               "vectorized frontier-advance rounds executed"),
    MetricName("route.rows_scanned", "counter", "BatchGreedyRouter",
               "label rows gathered (one per active query per round)"),
    MetricName("route.rows_repaired", "counter", "BatchGreedyRouter",
               "rows whose first pick was unusable (dead node or link) and were re-keyed"),
    MetricName("route.rows_revisited", "counter", "BatchGreedyRouter",
               "backtracking rows re-keyed against their node's tried set before the pick"),
    MetricName("route.recovery.reroute", "counter", "BatchGreedyRouter",
               "queries granted a random-reroute detour"),
    MetricName("route.recovery.backtrack", "counter", "BatchGreedyRouter",
               "queries returned to a predecessor by backtracking"),
    MetricName("route.frontier", "histogram", "BatchGreedyRouter",
               "live frontier size per round (power-of-two buckets)"),
    MetricName("route.hops", "histogram", "BatchGreedyRouter",
               "delivered hop counts per successful query"),
    MetricName("route.batch_ms", "histogram", "BatchGreedyRouter",
               "wall-clock milliseconds per routed batch"),
    # -- refresh.* : DeltaSnapshot ------------------------------------------
    MetricName("refresh.ops.link_fail", "counter", "DeltaSnapshot",
               "edge-liveness ops applied: links failed in place"),
    MetricName("refresh.ops.link_revive", "counter", "DeltaSnapshot",
               "edge-liveness ops applied: links revived in place"),
    MetricName("refresh.ops.<kind>", "counter", "DeltaSnapshot",
               "recorded churn mutations applied, per op kind"),
    MetricName("refresh.strategy.<strategy>", "counter", "DeltaSnapshot",
               "materialization strategy taken (liveness_reuse / row_splice / full_rebuild)"),
    MetricName("refresh.ms", "histogram", "DeltaSnapshot",
               "milliseconds per snapshot materialization"),
    # -- repair.* : MaintenanceDaemon ---------------------------------------
    MetricName("repair.passes", "counter", "MaintenanceDaemon",
               "batched repair passes run"),
    MetricName("repair.dead_links_found", "counter", "MaintenanceDaemon",
               "links found pointing at dead nodes"),
    MetricName("repair.links_regenerated", "counter", "MaintenanceDaemon",
               "replacement long links drawn"),
    MetricName("repair.ring_repairs", "counter", "MaintenanceDaemon",
               "ring successor/predecessor pointers re-stitched"),
    MetricName("repair.holders_touched", "counter", "MaintenanceDaemon",
               "distinct nodes whose link lists were repaired"),
    # -- faults.* : FaultDriver ---------------------------------------------
    MetricName("faults.runs", "counter", "FaultDriver",
               "fault schedules replayed end to end"),
    MetricName("faults.events.<kind>", "counter", "FaultDriver",
               "fault events applied, per event kind"),
    # -- service.* : the sustained mixed-traffic service scenario -----------
    MetricName("service.rounds", "counter", "scenarios.service",
               "service rounds completed"),
    MetricName("service.lookups", "counter", "scenarios.service",
               "lookup queries routed across all batches"),
    MetricName("service.refresh_ops", "counter", "scenarios.service",
               "recorded delta ops applied at snapshot refresh points (fastpath)"),
    MetricName("service.lookup_ms", "histogram", "scenarios.service",
               "wall-clock milliseconds per routed lookup batch"),
    MetricName("service.hops", "histogram", "scenarios.service",
               "delivered hop counts per successful lookup (per round and steady-state)"),
    MetricName("service.latency", "histogram", "scenarios.service",
               "simulated per-lookup latency milliseconds (per round and steady-state)"),
    MetricName("service.qps", "gauge", "scenarios.service",
               "steady-state routed lookups per wall-clock second"),
    # -- arena.* : SnapshotArena --------------------------------------------
    MetricName("arena.created", "counter", "SnapshotArena",
               "shared-memory snapshot segments created"),
    MetricName("arena.attached", "counter", "SnapshotArena",
               "shared-memory snapshot segments mapped by attachers"),
    MetricName("arena.snapshot_nbytes", "gauge", "SnapshotArena",
               "payload bytes of the last created segment (snapshot_nbytes)"),
    # -- sweep.* : Sweep.run ------------------------------------------------
    MetricName("sweep.cells_executed", "counter", "Sweep.run",
               "grid cells actually executed this run"),
    MetricName("sweep.cells_reused", "counter", "Sweep.run",
               "grid cells reused from a --resume file"),
    MetricName("sweep.worker.<pid>.cells", "counter", "Sweep.run",
               "cells completed per worker process"),
    MetricName("sweep.snapshot_cache.hits", "counter", "fastpath.snapcache",
               "per-worker arena cache lookups served from memory"),
    MetricName("sweep.snapshot_cache.misses", "counter", "fastpath.snapcache",
               "per-worker arena cache lookups that attached"),
    MetricName("sweep.cell_seconds", "histogram", "Sweep.run",
               "wall-clock seconds per executed cell"),
    MetricName("sweep.queue_wait_s", "histogram", "Sweep.run",
               "seconds a cell sat queued before a worker picked it up"),
)


def _segments_match(registered: Sequence[str], observed: Sequence[str]) -> bool:
    """Segment-wise name match.

    A ``<placeholder>`` segment in the registered name matches any single
    observed segment, including the ``*`` a linter substitutes for an
    f-string field; a literal registered segment matches only itself.  An
    observed ``*`` never matches a literal segment — dynamic names must be
    registered with explicit placeholders.
    """
    if len(registered) != len(observed):
        return False
    for registered_segment, observed_segment in zip(registered, observed):
        if _PLACEHOLDER.match(registered_segment):
            continue
        if registered_segment != observed_segment:
            return False
    return True


def find_metric(observed: str) -> MetricName | None:
    """The registry entry matching ``observed`` (``*`` = dynamic segment), if any."""
    observed_segments = observed.split(".")
    for entry in METRIC_NAMES:
        if _segments_match(entry.segments(), observed_segments):
            return entry
    return None


def metric_is_registered(observed: str) -> bool:
    """Whether ``observed`` (possibly with ``*`` dynamic segments) is registered."""
    return find_metric(observed) is not None


# ---------------------------------------------------------------------------
# Glossary generation
# ---------------------------------------------------------------------------


def render_glossary(entries: Iterable[MetricName] = METRIC_NAMES) -> str:
    """The README glossary table, generated from the registry."""
    lines = [
        "| metric | kind | emitted by | meaning |",
        "|--------|------|------------|---------|",
    ]
    for entry in entries:
        lines.append(
            f"| `{entry.name}` | {entry.kind} | `{entry.emitted_by}` | {entry.description} |"
        )
    return "\n".join(lines)
