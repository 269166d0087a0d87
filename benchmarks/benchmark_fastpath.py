"""Benchmark: batched fastpath engine vs the scalar object engine.

Routes the same 10 000 random queries over the same 10 000-node overlay with
both engines and reports the throughput gap — for the classic
failure-free terminate configuration *and*, under 30% node failures, for all
three Section-6 recovery strategies (terminate, random re-route,
backtracking).  It also times the direct-to-CSR network build
(:func:`repro.fastpath.build_snapshot`) against the object build + compile
path at paper scale (2^17 nodes).  Besides speed, the benchmark asserts
**statistical agreement**: the engines are hop-for-hop compatible, so
success rates and mean delivery times must match (they are identical on
identical seeds), and the two build paths must emit bit-identical snapshots.

Run with ``pytest benchmarks/benchmark_fastpath.py --benchmark-only -s`` or
directly with ``python benchmarks/benchmark_fastpath.py``.

Results are reported through the scenario API's structured
:class:`~repro.scenarios.RunResult` record and written to
``BENCH_fastpath.json`` (engine comparison) and ``BENCH_figure6.json`` (a
fastpath Figure-6 run plus the recovery-strategy and build speedups) at the
repository root, so successive PRs leave a machine-readable performance
trajectory that can be diffed.  Both artifacts carry the shared
``bench_schema`` stamp and a telemetry dump (phase timings observed into
histograms plus the engines' own counters), and ``repro bench-diff`` compares
two of them metric-by-metric.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

if __name__ == "__main__":  # direct execution from a clean checkout
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

import numpy as np

from repro.core.builder import build_ideal_network
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.fastpath import BatchGreedyRouter, compile_snapshot
from repro.simulation.workload import LookupWorkload
from repro.telemetry import SECONDS_BUCKETS, session as telemetry_session, write_bench_result

NODES = 10_000
QUERIES = 10_000
SEED = 1


def _observe_seconds(tel, stats: dict, keys: tuple[str, ...]) -> None:
    """Fold the measured phase timings into the session's histograms."""
    for key in keys:
        tel.observe(f"bench.{key}", float(stats[key]), buckets=SECONDS_BUCKETS)


def _object_engine(graph, pairs) -> tuple[float, float, float]:
    """Return (seconds, success_rate, mean_hops) for the scalar router."""
    router = GreedyRouter(graph, recovery=RecoveryStrategy.TERMINATE, seed=SEED)
    hops: list[int] = []
    failures = 0
    started = time.perf_counter()
    for source, target in pairs:
        route = router.route(source, target)
        if route.success:
            hops.append(route.hops)
        else:
            failures += 1
    elapsed = time.perf_counter() - started
    success_rate = 1.0 - failures / len(pairs)
    return elapsed, success_rate, float(np.mean(hops)) if hops else 0.0


def _fastpath_engine(graph, pairs) -> tuple[float, float, float, float]:
    """Return (compile_s, route_s, success_rate, mean_hops) for the batch engine."""
    started = time.perf_counter()
    router = BatchGreedyRouter(compile_snapshot(graph))
    compiled = time.perf_counter()
    result = router.route_pairs(pairs)
    finished = time.perf_counter()
    return (
        compiled - started,
        finished - compiled,
        result.success_rate(),
        result.mean_hops(),
    )


def run_comparison(nodes: int = NODES, queries: int = QUERIES, seed: int = SEED) -> dict:
    """Build one overlay, route the same queries with both engines.

    Run inside a :func:`repro.telemetry.session` when a telemetry dump should
    accompany the stats — the batch engine's own ``route.*`` counters land in
    the active session, and the caller folds the phase timings in via
    :func:`_observe_seconds`.
    """
    graph = build_ideal_network(nodes, seed=seed).graph
    pairs = LookupWorkload(seed=seed + 1).pairs(graph.labels(only_alive=True), queries)

    object_seconds, object_success, object_hops = _object_engine(graph, pairs)
    compile_seconds, route_seconds, fast_success, fast_hops = _fastpath_engine(
        graph, pairs
    )
    return {
        "nodes": nodes,
        "queries": queries,
        "object_seconds": object_seconds,
        "object_qps": queries / object_seconds,
        "fastpath_compile_seconds": compile_seconds,
        "fastpath_route_seconds": route_seconds,
        "fastpath_qps": queries / route_seconds,
        "throughput_speedup": object_seconds / route_seconds,
        "end_to_end_speedup": object_seconds / (compile_seconds + route_seconds),
        "object_success_rate": object_success,
        "fastpath_success_rate": fast_success,
        "object_mean_hops": object_hops,
        "fastpath_mean_hops": fast_hops,
    }


def run_strategy_comparison(
    nodes: int = NODES,
    queries: int = QUERIES,
    seed: int = SEED,
    failure_level: float = 0.3,
) -> dict:
    """Benchmark every recovery strategy on both engines under node failures.

    One network, one failure draw, one workload; each strategy routes the
    same pairs through the scalar router and the batch router.  Returns
    ``{strategy: {object_seconds, fastpath_seconds, speedup, ...}}``.
    """
    from repro.core.failures import NodeFailureModel
    from repro.fastpath import BatchGreedyRouter

    graph = build_ideal_network(nodes, seed=seed).graph
    NodeFailureModel(failure_level, seed=seed + 1).apply(graph)
    live = graph.labels(only_alive=True)
    pairs = LookupWorkload(seed=seed + 2).pairs(live, queries)
    snapshot = compile_snapshot(graph)

    results: dict[str, dict] = {}
    for recovery in RecoveryStrategy:
        scalar = GreedyRouter(graph, recovery=recovery, seed=seed)
        started = time.perf_counter()
        failures = 0
        hops: list[int] = []
        for source, target in pairs:
            route = scalar.route(source, target)
            if route.success:
                hops.append(route.hops)
            else:
                failures += 1
        object_seconds = time.perf_counter() - started

        batch = BatchGreedyRouter(
            snapshot,
            recovery=recovery,
            seed=seed,
            reroute_pool=live if recovery is RecoveryStrategy.RANDOM_REROUTE else None,
        )
        started = time.perf_counter()
        result = batch.route_pairs(pairs)
        fastpath_seconds = time.perf_counter() - started

        results[recovery.value] = {
            "object_seconds": object_seconds,
            "fastpath_seconds": fastpath_seconds,
            "speedup": object_seconds / fastpath_seconds,
            "object_success_rate": 1.0 - failures / len(pairs),
            "fastpath_success_rate": result.success_rate(),
            "object_mean_hops": float(np.mean(hops)) if hops else 0.0,
            "fastpath_mean_hops": result.mean_hops(),
        }
    return results


def run_build_comparison(n: int = 1 << 17, links_per_node: int | None = None, seed: int = SEED) -> dict:
    """Time the direct-to-CSR build against build + compile at paper scale.

    Also asserts the two paths emit bit-identical snapshots — the direct
    build's core contract — and that the dtype contract narrowed labels and
    row pointers to ``int32`` (paper scale sits well below the ``2**30``
    label cutoff), reporting the peak snapshot footprint in bytes.
    """
    from repro.fastpath import build_snapshot
    from repro.fastpath.dtypes import snapshot_nbytes

    started = time.perf_counter()
    direct = build_snapshot(n, links_per_node=links_per_node, seed=seed)
    direct_seconds = time.perf_counter() - started

    started = time.perf_counter()
    graph = build_ideal_network(n, links_per_node=links_per_node, seed=seed).graph
    compiled = compile_snapshot(graph)
    object_seconds = time.perf_counter() - started

    assert np.array_equal(compiled.labels, direct.labels)
    assert np.array_equal(compiled.neighbor_indptr, direct.neighbor_indptr)
    assert np.array_equal(compiled.neighbor_indices, direct.neighbor_indices)
    assert compiled.labels.dtype == np.dtype(np.int32), compiled.labels.dtype
    assert compiled.neighbor_indptr.dtype == np.dtype(np.int32), compiled.neighbor_indptr.dtype
    assert direct.labels.dtype == compiled.labels.dtype
    assert direct.neighbor_indptr.dtype == compiled.neighbor_indptr.dtype

    narrowed_bytes = snapshot_nbytes(compiled)
    # What the same snapshot would ship with pre-contract int64 labels/indptr.
    wide_bytes = narrowed_bytes + compiled.labels.nbytes + compiled.neighbor_indptr.nbytes
    return {
        "nodes": n,
        "direct_build_seconds": direct_seconds,
        "object_build_plus_compile_seconds": object_seconds,
        "build_speedup": object_seconds / direct_seconds,
        "bit_identical": True,
        "snapshot_bytes": narrowed_bytes,
        "snapshot_bytes_int64_equivalent": wide_bytes,
        "snapshot_bytes_saved": wide_bytes - narrowed_bytes,
    }


def stats_to_run_result(stats: dict):
    """Wrap the comparison stats in a structured, JSON-able RunResult."""
    from repro.experiments.runner import ExperimentTable
    from repro.scenarios import RunResult, ScenarioSpec, TopologySpec, WorkloadSpec

    spec = ScenarioSpec(
        scenario="bench-fastpath",
        topology=TopologySpec(kind="ideal", nodes=stats["nodes"]),
        workload=WorkloadSpec(searches=stats["queries"]),
        engine="fastpath",
        seed=SEED,
    )
    table = ExperimentTable(
        title=f"fastpath vs object engine @ n={stats['nodes']}, {stats['queries']} queries",
        columns=["metric", "value"],
        notes="queries_per_sec counts routing time alone; end_to_end_speedup "
        "includes one-off snapshot compilation.",
    )
    for key in sorted(stats):
        table.add_row(key, stats[key])
    return RunResult(
        scenario="bench-fastpath",
        spec=spec,
        engine_requested="fastpath",
        engine_used="fastpath",
        tables=[table],
        seconds=stats["object_seconds"]
        + stats["fastpath_compile_seconds"]
        + stats["fastpath_route_seconds"],
    )


def measure_comparison(nodes: int = NODES, queries: int = QUERIES, seed: int = SEED) -> tuple[dict, dict]:
    """Run the comparison inside a telemetry session; return (stats, dump)."""
    with telemetry_session() as tel:
        stats = run_comparison(nodes=nodes, queries=queries, seed=seed)
        _observe_seconds(
            tel,
            stats,
            ("object_seconds", "fastpath_compile_seconds", "fastpath_route_seconds"),
        )
    return stats, tel.to_dict()


def write_bench_artifact(
    stats: dict, path: Path | None = None, telemetry: dict | None = None
) -> Path:
    """Write the RunResult JSON artifact (default: BENCH_fastpath.json at repo root)."""
    if path is None:
        path = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"
    return write_bench_result(stats_to_run_result(stats), path, telemetry=telemetry)


def write_figure6_artifact(
    strategy_stats: dict,
    build_stats: dict,
    nodes: int = 1 << 14,
    searches: int = 2000,
    path: Path | None = None,
) -> Path:
    """Run Figure 6 on the fastpath engine and persist ``BENCH_figure6.json``.

    The artifact is the scenario :class:`~repro.scenarios.RunResult` of a
    full-coverage fastpath Figure-6 run (all three strategies, failure levels
    0 .. 0.8) with two benchmark tables appended: the per-strategy engine
    speedups and the direct-build comparison.  Together with
    ``BENCH_fastpath.json`` it forms the cross-PR performance trajectory.
    """
    from repro.experiments.runner import ExperimentTable
    from repro.scenarios import get_scenario, run

    if path is None:
        path = Path(__file__).resolve().parent.parent / "BENCH_figure6.json"

    spec = get_scenario("figure6").make_spec(
        overrides={
            "topology.nodes": nodes, "workload.searches": searches, "engine": "fastpath",
        },
        seed=SEED,
    )
    record = run(spec, collect_telemetry=True)
    assert record.engine_used == "fastpath", record.engine_used

    strategy_table = ExperimentTable(
        title=f"recovery-strategy engine speedups @ n={NODES}, {QUERIES} queries, 30% failed nodes",
        columns=["strategy", "object_s", "fastpath_s", "speedup", "success_rate", "mean_hops"],
        notes="object and fastpath statistics are identical at the same seed; "
        "only one copy of each is shown.",
    )
    for strategy, stats in strategy_stats.items():
        strategy_table.add_row(
            strategy,
            stats["object_seconds"],
            stats["fastpath_seconds"],
            stats["speedup"],
            stats["fastpath_success_rate"],
            stats["fastpath_mean_hops"],
        )
    build_table = ExperimentTable(
        title=f"direct-to-CSR build vs object build + compile @ n={build_stats['nodes']}",
        columns=["metric", "value"],
    )
    for key in sorted(build_stats):
        build_table.add_row(key, build_stats[key])
    record.tables.extend([strategy_table, build_table])
    return write_bench_result(record, path, telemetry=record.telemetry)


def check_agreement_and_speedup(stats: dict) -> None:
    """The acceptance assertions: >= 10x throughput, matching statistics."""
    # Statistical agreement — the engines are hop-for-hop compatible, so the
    # tolerance is belt-and-braces (the values are identical in practice).
    assert abs(stats["object_success_rate"] - stats["fastpath_success_rate"]) <= 0.01, (
        f"success rates diverge: object {stats['object_success_rate']:.4f} "
        f"vs fastpath {stats['fastpath_success_rate']:.4f}"
    )
    assert abs(stats["object_mean_hops"] - stats["fastpath_mean_hops"]) <= 0.05, (
        f"mean hops diverge: object {stats['object_mean_hops']:.3f} "
        f"vs fastpath {stats['fastpath_mean_hops']:.3f}"
    )
    # Throughput: >= 10x queries/sec (typically 40-80x); end-to-end including
    # one-off snapshot compilation stays comfortably ahead as well.
    assert stats["throughput_speedup"] >= 10.0, (
        f"fastpath throughput speedup {stats['throughput_speedup']:.1f}x < 10x"
    )
    assert stats["end_to_end_speedup"] >= 3.0, (
        f"fastpath end-to-end speedup {stats['end_to_end_speedup']:.1f}x < 3x"
    )


def check_strategies_and_build(strategy_stats: dict, build_stats: dict) -> None:
    """Full-coverage acceptance: >= 10x per strategy, >= 5x direct build."""
    for strategy, stats in strategy_stats.items():
        assert stats["object_success_rate"] == stats["fastpath_success_rate"], (
            f"{strategy}: success rates diverge "
            f"({stats['object_success_rate']:.4f} vs {stats['fastpath_success_rate']:.4f})"
        )
        assert abs(stats["object_mean_hops"] - stats["fastpath_mean_hops"]) < 1e-9, (
            f"{strategy}: mean hops diverge "
            f"({stats['object_mean_hops']:.4f} vs {stats['fastpath_mean_hops']:.4f})"
        )
        assert stats["speedup"] >= 10.0, (
            f"{strategy}: batched routing speedup {stats['speedup']:.1f}x < 10x"
        )
    assert build_stats["bit_identical"]
    assert build_stats["build_speedup"] >= 5.0, (
        f"direct build speedup {build_stats['build_speedup']:.1f}x < 5x"
    )
    assert build_stats["snapshot_bytes"] < build_stats["snapshot_bytes_int64_equivalent"], (
        "dtype narrowing saved no snapshot bytes"
    )


def _report(stats: dict) -> str:
    return (
        f"\nfastpath vs object @ n={stats['nodes']}, {stats['queries']} queries\n"
        f"  object:   {stats['object_seconds']:.3f}s "
        f"({stats['object_qps']:,.0f} queries/sec)\n"
        f"  fastpath: compile {stats['fastpath_compile_seconds']:.3f}s + "
        f"route {stats['fastpath_route_seconds']:.3f}s "
        f"({stats['fastpath_qps']:,.0f} queries/sec)\n"
        f"  speedup:  {stats['throughput_speedup']:.1f}x throughput, "
        f"{stats['end_to_end_speedup']:.1f}x end-to-end\n"
        f"  agreement: success {stats['object_success_rate']:.4f} vs "
        f"{stats['fastpath_success_rate']:.4f}, mean hops "
        f"{stats['object_mean_hops']:.3f} vs {stats['fastpath_mean_hops']:.3f}"
    )


def _report_strategies(strategy_stats: dict, build_stats: dict) -> str:
    lines = ["\nrecovery strategies @ 30% failed nodes"]
    for strategy, stats in strategy_stats.items():
        lines.append(
            f"  {strategy:15s} object {stats['object_seconds']:6.2f}s | "
            f"fastpath {stats['fastpath_seconds']:5.2f}s | "
            f"{stats['speedup']:5.1f}x | success {stats['fastpath_success_rate']:.4f}"
        )
    lines.append(
        f"direct-to-CSR build @ n={build_stats['nodes']}: "
        f"{build_stats['direct_build_seconds']:.2f}s vs "
        f"{build_stats['object_build_plus_compile_seconds']:.2f}s "
        f"({build_stats['build_speedup']:.1f}x, bit-identical)"
    )
    lines.append(
        f"peak snapshot footprint @ n={build_stats['nodes']}: "
        f"{build_stats['snapshot_bytes'] / 1e6:.1f} MB int32-narrowed vs "
        f"{build_stats['snapshot_bytes_int64_equivalent'] / 1e6:.1f} MB int64 "
        f"({build_stats['snapshot_bytes_saved'] / 1e6:.1f} MB saved)"
    )
    return "\n".join(lines)


def test_fastpath_speedup_and_agreement(benchmark, paper_scale):
    """Fastpath must be >= 10x faster than the object engine and agree with it."""
    nodes = (1 << 15) if paper_scale else NODES
    queries = 50_000 if paper_scale else QUERIES

    stats, telemetry = benchmark.pedantic(
        measure_comparison,
        kwargs={"nodes": nodes, "queries": queries, "seed": SEED},
        rounds=1,
        iterations=1,
    )
    print(_report(stats))
    for key, value in stats.items():
        benchmark.extra_info[key] = value
    artifact = write_bench_artifact(stats, telemetry=telemetry)
    print(f"  artifact: {artifact}")
    check_agreement_and_speedup(stats)


def test_recovery_strategies_and_direct_build(benchmark, paper_scale):
    """All three strategies >= 10x batched; direct build >= 5x at 2^17."""
    build_nodes = (1 << 17) if paper_scale else (1 << 15)

    def measure():
        return (
            run_strategy_comparison(),
            run_build_comparison(n=build_nodes),
        )

    strategy_stats, build_stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(_report_strategies(strategy_stats, build_stats))
    for strategy, stats in strategy_stats.items():
        benchmark.extra_info[f"{strategy}_speedup"] = stats["speedup"]
    benchmark.extra_info["build_speedup"] = build_stats["build_speedup"]
    artifact = write_figure6_artifact(strategy_stats, build_stats)
    print(f"  artifact: {artifact}")
    check_strategies_and_build(strategy_stats, build_stats)


if __name__ == "__main__":
    result, run_telemetry = measure_comparison()
    print(_report(result))
    artifact = write_bench_artifact(result, telemetry=run_telemetry)
    print(f"  artifact: {artifact}")
    check_agreement_and_speedup(result)
    strategy_stats = run_strategy_comparison()
    build_stats = run_build_comparison()
    print(_report_strategies(strategy_stats, build_stats))
    artifact = write_figure6_artifact(strategy_stats, build_stats)
    print(f"  artifact: {artifact}")
    check_strategies_and_build(strategy_stats, build_stats)
    print(
        "\nall assertions passed (>= 10x routing per strategy, >= 5x direct "
        "build, statistics agree)"
    )
