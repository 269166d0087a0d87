"""The benchmark's metric and workload tables — the single source of truth.

``BENCHMARK.json`` at the repository root, the glossary in ``README.md`` and
the result check in ``run.py`` are all derived from (or verified against)
these tables; ``python3 bench/metrics.py`` prints the ``BENCHMARK.json``
content, ``python3 bench/metrics.py --glossary`` the README glossary.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

RUN_SECONDS = 10
COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: the share of the parent's median by which the metric may
    #: worsen.  Per-layer metrics have no bound (``None``): reported, not gated.
    bound: float | None
    definition: str
    #: Per-layer only: the end-to-end metric @ workload this one should move,
    #: and one workload on which it must not move anything.
    moves: str = ""
    must_not_move: str = ""


WORKLOADS = [
    Workload(
        "ring-static",
        "2^17 symmetric power-law ring (hub rows, max degree 53), warm router, no failures: "
        "the forward step does all the work; bypass for refresh, cold and recovery changes",
    ),
    Workload(
        "ring-failed",
        "same ring with 30% of nodes failed (paper Figure 6 mid-point): backtracking, "
        "terminate and random re-route recovery code dominates",
    ),
    Workload(
        "service-liveness",
        "2^18 one-sided ring served from a shared-memory arena while crash/link-fail/revive "
        "deltas land every round: refresh, usable-matrix fold, cold attach and worker fan-out",
    ),
    Workload(
        "service-structural",
        "the registered service scenario (object-graph churn, batched repair, delta refresh, "
        "routing): object mutation, load generation and the scenario's own loop take four "
        "fifths, the router a fifth",
    ),
    Workload(
        "protocol-mix",
        "Chord, Kleinberg, CAN and Plaxton snapshots through the same batch router: the "
        "policy path (torus, prefix, tiered finger/successor keys) no ring workload runs",
    ),
]

# Every end-to-end metric is defined on every workload (the driver reads all
# of them from every run) and is never zero.
END_TO_END = [
    Metric(
        "lookups_per_s", "1/s", "higher", 0.25,
        "lookups per unit / wall time of the quiet (fastest-decile) unit of the sustained "
        "phase; a unit is a batch (ring-*), a round of apply + snapshot + rebase + 3 batches "
        "(service-liveness: mean over the four kinds of round), a four-protocol cycle "
        "(protocol-mix), one scenarios.run() (service-structural: table lookups / run wall)",
    ),
    Metric(
        "batch_ms_p10", "ms", "lower", 0.25,
        "fastest-decile wall time of one route_batch call in the sustained phase (ring-failed: "
        "BACKTRACK phase; protocol-mix: one four-protocol cycle / 4; service-structural: the "
        "scenario's own route_batch calls, first of each run excluded)",
    ),
    Metric(
        "cold_batch_ms_p10", "ms", "lower", 0.25,
        "fastest-decile time of the first route_batch on derived state that does not exist yet "
        "(one per episode plus twelve on fresh copies; service-liveness: fresh arena attach + "
        "new router + first batch; service-structural: first batch of each run; protocol-mix: "
        "mean over the four routers)",
    ),
    Metric(
        "delivered_share", "ratio", "higher", 0.01,
        "lookups delivered / lookups attempted in the sustained phase (1 - the paper's "
        "failed-search share)",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the measuring child process",
    ),
    Metric(
        "bytes_per_node", "B", "lower", 0.01,
        "(snapshot_nbytes + routing_matrices + class_matrix + one bool usable matrix) / n; "
        "computed from array sizes",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "child spawn to program imported, plus the median of the three in-process set-ups "
        "after the first: build/compile, failures, arena, mirror, router construction "
        "(service-structural: the spec only; the build is inside the scenario)",
    ),
]

_R = "ring-static"
_F = "ring-failed"
_L = "service-liveness"
_S = "service-structural"
_P = "protocol-mix"


def _layer(name, unit, better, definition, moves, must_not_move):
    return Metric(name, unit, better, None, definition, moves, must_not_move)


PER_LAYER = [
    # -- end-to-end, but for one workload only or too noisy to gate: reported
    #    here because the driver reads every gated metric from every workload -
    _layer("batch_ms_p50", "ms", "lower", "median of the batch_ms_p10 samples (untraced half); the host's bursts sit in it: spread up to 0.25 where p10 has 0.08", f"(itself) @ {_R}", _S),
    _layer("batch_ms_p90", "ms", "lower", "90th percentile of the same samples (the sample count is printed; 100 samples keep ten beyond it)", f"(itself) @ {_R}", _S),
    _layer("cold_batch_ms_p50", "ms", "lower", "median of the cold_batch_ms_p10 samples", f"(itself) @ {_L}", _R + " batches"),
    _layer("round_ms_p50", "ms", "lower", "service-liveness: delta in hand to third batch returned, mean over the four kinds of round of each kind's median (untraced half)", f"lookups_per_s @ {_L}", _R),
    _layer("refresh_ms_p50", "ms", "lower", "service-liveness: apply + snapshot() + rebase (untraced half)", f"lookups_per_s @ {_L}", _R),
    _layer("worker_lookups_per_s", "1/s", "higher", "service-liveness fan-out: sum over workers of warm lookups / warm route seconds", f"(itself) @ {_L}", _R),
    _layer("failed_share", "ratio", "lower", "1 - delivered_share (zero on failure-free workloads, so not gated)", f"delivered_share @ {_F}", _R),
    # -- fastpath.builder ---------------------------------------------------
    _layer("builder.build_s", "s", "lower", "build_snapshot wall", f"setup_s @ {_R}", _S),
    _layer("builder.nodes_per_s", "1/s", "higher", "n / build_snapshot wall", f"setup_s @ {_L}", _P),
    # -- fastpath.snapshot --------------------------------------------------
    _layer("snapshot.compile_ms", "ms", "lower", "overlay.compile_snapshot() total (object/overlay to CSR)", f"setup_s @ {_P}", _R),
    _layer("snapshot.matrices_ms", "ms", "lower", "first routing_matrices() on a fresh snapshot, median", f"cold_batch_ms_p10 @ {_L}", _R + " batches"),
    _layer("snapshot.nbytes_per_node", "B", "lower", "snapshot_nbytes / n", f"bytes_per_node @ {_L}", _S),
    _layer("snapshot.derived_nbytes_per_node", "B", "lower", "dense + valid + labels + class + usable matrices / n", f"bytes_per_node, peak_rss_mb @ {_L}", _S),
    _layer("snapshot.max_degree", "count", "lower", "widest CSR row (the dense matrices' width)", f"bytes_per_node @ {_R}", _L),
    # -- fastpath.failures --------------------------------------------------
    _layer("failures.apply_ms", "ms", "lower", "apply_node_failures wall", f"setup_s @ {_F}", _R),
    # -- fastpath.batch_router ----------------------------------------------
    _layer("router.warm_batch_ms_p50", "ms", "lower", "route_batch self time, batches not following a rebase", f"batch_ms_p10 @ {_R}", _S),
    _layer("router.post_rebase_batch_ms_p50", "ms", "lower", "route_batch wall, first batch after a rebase", f"lookups_per_s @ {_L}", _R),
    _layer("router.usable_fold_ms", "ms", "lower", "post-rebase batch - warm batch: the usable / edge-valid matrix fold", f"lookups_per_s @ {_L}", _R),
    _layer("router.rebase_ms_p50", "ms", "lower", "BatchGreedyRouter.rebase wall", f"lookups_per_s @ {_L}", _R),
    _layer("router.ns_per_hop", "ns", "lower", "route seconds / sum of result.hops", f"lookups_per_s @ {_R}", _S),
    _layer("router.hops_per_lookup", "count", "lower", "sum of result.hops / lookups (exact)", f"batch_ms_p10 @ {_R}", _S),
    _layer("router.delivered_share", "ratio", "higher", "delivered / attempted over every phase of the traced run", f"delivered_share @ {_F}", _R),
    _layer("router.reroutes_per_lookup", "count", "lower", "sum of result.reroutes / lookups, RANDOM_REROUTE phase (exact)", f"lookups_per_s @ {_F}", _R),
    _layer("router.backtracks_per_lookup", "count", "lower", "sum of result.backtracks / lookups, BACKTRACK phase (exact)", f"batch_ms_p10 @ {_F}", _R),
    _layer("router.terminate.lookups_per_s", "1/s", "higher", "TERMINATE phase throughput", f"lookups_per_s @ {_R}", _S),
    _layer("router.reroute.lookups_per_s", "1/s", "higher", "RANDOM_REROUTE phase throughput", f"(side phase) @ {_F}", _R),
    _layer("router.backtrack.lookups_per_s", "1/s", "higher", "BACKTRACK phase throughput", f"lookups_per_s @ {_F}", _R),
    *[
        _layer(f"router.{p}.{m}", u, "lower", f"{p} snapshot: {d}", f"batch_ms_p10 @ {_P}", _R)
        for p in ("chord", "kleinberg", "can", "plaxton")
        for m, u, d in (("batch_ms_p50", "ms", "median route_batch wall"), ("ns_per_hop", "ns", "route seconds / hops"))
    ],
    _layer("router.rounds", "count", "lower", "route.rounds telemetry counter per batch: lock-step rounds (traced half)", f"batch_ms_p10 @ {_R}", _S),
    _layer("router.rows_scanned", "count", "lower", "route.rows_scanned telemetry counter per lookup: dense rows gathered (traced half)", f"batch_ms_p10 @ {_R}", _S),
    # -- fastpath.delta -----------------------------------------------------
    _layer("delta.apply_ms_p50", "ms", "lower", "DeltaSnapshot.apply wall per delta", f"lookups_per_s @ {_L}", _R),
    _layer("delta.apply_us_per_op", "us", "lower", "apply seconds / ops applied", f"lookups_per_s @ {_L}", _R),
    _layer("delta.snapshot_ms_p50", "ms", "lower", "DeltaSnapshot.snapshot() wall", f"lookups_per_s @ {_L}", _R),
    _layer("delta.ops_per_round", "count", "lower", "mean len(delta) per refresh (from SnapshotDelta.counts())", f"lookups_per_s @ {_L}", _R),
    _layer("delta.from_graph_ms", "ms", "lower", "DeltaSnapshot.from_graph wall per scenario run", f"lookups_per_s @ {_S}", _L),
    _layer("delta.drain_ms", "ms", "lower", "DeltaRecorder.drain total per scenario run", f"lookups_per_s @ {_S}", _L),
    _layer("delta.strategy.liveness_reuse", "count", "higher", "refresh.strategy.liveness_reuse telemetry counter", f"lookups_per_s @ {_L}", _R),
    _layer("delta.strategy.row_splice", "count", "lower", "refresh.strategy.row_splice telemetry counter", f"lookups_per_s @ {_S}", _L),
    _layer("delta.strategy.full_rebuild", "count", "lower", "refresh.strategy.full_rebuild telemetry counter", f"lookups_per_s @ {_S}", _L),
    # -- fastpath.shm / snapcache -------------------------------------------
    _layer("shm.create_ms", "ms", "lower", "SnapshotArena.create wall", f"setup_s @ {_L}", _R),
    _layer("shm.attach_ms", "ms", "lower", "SnapshotArena.attach wall, median", f"cold_batch_ms_p10 @ {_L}", _R),
    _layer("shm.arena_nbytes", "B", "lower", "arena segment size", f"peak_rss_mb @ {_L}", _R),
    _layer("worker.attach_ms", "ms", "lower", "cached_attach in a spawn worker, mean", f"worker_lookups_per_s @ {_L}", _R),
    _layer("worker.cold_first_batch_ms", "ms", "lower", "first batch in a spawn worker, mean (0.3-1.9 s run to run: never gated)", f"worker_lookups_per_s @ {_L}", _R),
    _layer("worker.warm_batch_ms_p50", "ms", "lower", "warm batches in spawn workers, median", f"worker_lookups_per_s @ {_L}", _R),
    # -- core (object engine) -----------------------------------------------
    _layer("core.build_s", "s", "lower", "build_heuristic_network wall per scenario run", f"lookups_per_s @ {_S}", _R),
    _layer("core.mutate_ms_per_event", "ms", "lower", "add_point / handle_departure / fail_node self time per event", f"lookups_per_s @ {_S}", _L),
    _layer("core.repair_ms_per_pass", "ms", "lower", "repair_all_batched self time per pass", f"lookups_per_s @ {_S}", _L),
    _layer("core.links_regenerated", "count", "lower", "MaintenanceReport.links_regenerated per scenario run (exact)", f"lookups_per_s @ {_S}", _L),
    # -- simulation ---------------------------------------------------------
    _layer("simulation.pairs_ms_p50", "ms", "lower", "LookupWorkload.pairs wall per lookup batch (the scenario draws its own load: 0.3 of its run)", f"lookups_per_s @ {_S}", _R),
    # -- overlay / baselines ------------------------------------------------
    *[
        _layer(f"overlay.{p}.{m}", u, "lower", f"{p}: {d}", f"setup_s @ {_P}", _R)
        for p in ("chord", "kleinberg", "can", "plaxton")
        for m, u, d in (("construct_s", "s", "overlay constructor wall"), ("compile_ms", "ms", "compile_snapshot wall"))
    ],
    # -- scenarios ----------------------------------------------------------
    _layer("scenarios.run_s", "s", "lower", "scenarios.run wall, median over traced repeats", f"lookups_per_s @ {_S}", _R),
    _layer("scenarios.unattributed_share", "ratio", "lower", "1 - sum of layer self time / run() wall (schedule, live-label sorts, per-hop latency model, tables)", f"lookups_per_s @ {_S}", _R),
    # -- harness ------------------------------------------------------------
    _layer("harness.import_s", "s", "lower", "child spawn to program imported (interpreter start + imports)", f"setup_s @ {_S}", _R + " batches"),
    _layer("harness.first_setup_s", "s", "lower", "the process's first set-up, first page touches included (setup_s reports the later ones)", "(none: environment)", _R + " batches"),
    _layer("trace.overhead_share", "ratio", "lower", "traced / untraced quiet unit time - 1, same episodes", "(none: harness)", _R),
    _layer("trace.attributed_share", "ratio", "higher", "sum of layer self time / program time of the traced sustained phase", "(none: harness)", _R),
    _layer("trace.spans", "count", "lower", "spans recorded by the traced run", "(none: harness)", _R),
]


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def glossary() -> str:
    """The README glossary, generated so it cannot drift from the tables."""
    lines = [
        "| metric | unit | better | bound | definition |",
        "|---|---|---|---|---|",
    ]
    for m in END_TO_END:
        lines.append(f"| `{m.name}` | {m.unit} | {m.better} | {m.bound} | {m.definition} |")
    lines += [
        "",
        "| per-layer metric | unit | better | definition | should move | must not move |",
        "|---|---|---|---|---|---|",
    ]
    for m in PER_LAYER:
        lines.append(
            f"| `{m.name}` | {m.unit} | {m.better} | {m.definition} | {m.moves} | {m.must_not_move} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    if "--glossary" in sys.argv[1:]:
        print(glossary())
    else:
        print(json.dumps(benchmark_json(), indent=2))
