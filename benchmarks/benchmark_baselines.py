"""Benchmark: baseline comparison (Section 3's systems on one workload).

The paper argues that Chord, CAN, and Tapestry are all instances of greedy
routing in a metric space and should behave comparably; this benchmark runs
the same random lookup workload over each system and over this paper's
overlay, healthy and with 30% failed nodes.

Expected shape: the logarithmic systems (this paper's overlay, Chord,
Kleinberg with enough links, Plaxton) deliver in O(log n)-ish hops, while CAN
with d=2 needs O(sqrt n) hops; under failures without repair, the systems with
more routing choice (this overlay with backtracking, Chord with successor
lists) lose far fewer searches than the rigid ones (CAN, Plaxton).

Since the Overlay redesign every topology also compiles to the fastpath:
``run_protocol_engine_comparison`` batch-routes each protocol's snapshot
against its scalar ``route()`` at n >= 10^4 under 30% failures, asserts a
>= 10x throughput speedup **per protocol** with identical statistics, and
writes the machine-readable ``BENCH_baselines.json`` artifact at the repo
root (same RunResult trajectory pattern as ``BENCH_fastpath.json``).

Run with ``pytest benchmarks/benchmark_baselines.py --benchmark-only -s`` or
directly with ``python benchmarks/benchmark_baselines.py``.
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

from repro.scenarios import RunResult, get_scenario, run
from repro.telemetry import (
    SECONDS_BUCKETS,
    current as telemetry_current,
    session as telemetry_session,
    write_bench_result,
)

SEED = 4
QUERIES = 10_000
FAILURE_LEVEL = 0.3


BITS = 14
PAPER_BITS = 16


def _protocol_systems(paper_scale: bool) -> dict:
    """One instance per overlay protocol, every one at exactly n = 2^bits."""
    from repro.baselines import (
        CanNetwork,
        ChordNetwork,
        KleinbergGridNetwork,
        PlaxtonNetwork,
    )

    bits = PAPER_BITS if paper_scale else BITS
    side = 1 << (bits // 2)
    return {
        "chord": ChordNetwork(bits=bits),
        "kleinberg": KleinbergGridNetwork(side=side, links_per_node=bits, seed=SEED),
        "can": CanNetwork(side=side, dimensions=2),
        "plaxton": PlaxtonNetwork(digits=bits // 2, base=4),
    }


def run_protocol_engine_comparison(
    queries: int = QUERIES,
    failure_level: float = FAILURE_LEVEL,
    seed: int = SEED,
    paper_scale: bool = False,
) -> dict:
    """Route the same workload per protocol through both engines.

    Each protocol instance gets ``failure_level`` of its nodes failed, then
    routes ``queries`` random live-pair lookups once through the scalar
    ``route()`` and once batched over ``compile_snapshot()``.  Each engine
    receives the workload in its native form — (source, target) tuples for
    the scalar walk, label arrays for the batch engine — so the timings
    measure routing, not input marshalling.  Returns
    ``{protocol: {nodes, object_seconds, fastpath_*, speedup, ...}}``.
    """
    from repro.fastpath import BatchGreedyRouter
    from repro.simulation.workload import LookupWorkload

    results: dict[str, dict] = {}
    for offset, (name, system) in enumerate(_protocol_systems(paper_scale).items()):
        system.fail_fraction(failure_level, seed=seed + 10 * offset)
        live = system.labels(only_alive=True)
        pairs = LookupWorkload(seed=seed + 10 * offset + 1).pairs(live, queries)
        pair_array = np.asarray(pairs, dtype=np.int64)

        started = time.perf_counter()
        failures = 0
        hops: list[int] = []
        for source, target in pairs:
            route = system.route(source, target)
            if route.success:
                hops.append(route.hops)
            else:
                failures += 1
        object_seconds = time.perf_counter() - started

        tel = telemetry_current()
        if tel is not None:
            tel.observe(
                f"bench.{name}.object_seconds", object_seconds, buckets=SECONDS_BUCKETS
            )

        started = time.perf_counter()
        snapshot = system.compile_snapshot()
        # The dense routing matrices are pure topology artifacts built
        # lazily on first use; materialise them in the compile phase so the
        # route phase measures routing alone (matching the scalar side,
        # whose tables were built at construction time).
        snapshot.routing_matrices()
        snapshot.class_matrix()
        snapshot.labels_compact()
        compiled = time.perf_counter()
        router = BatchGreedyRouter(snapshot, hop_limit=system.hop_limit)
        batch = router.route_batch(pair_array[:, 0], pair_array[:, 1])
        finished = time.perf_counter()

        if tel is not None:
            tel.observe(
                f"bench.{name}.fastpath_compile_seconds",
                compiled - started,
                buckets=SECONDS_BUCKETS,
            )
            tel.observe(
                f"bench.{name}.fastpath_route_seconds",
                finished - compiled,
                buckets=SECONDS_BUCKETS,
            )

        results[name] = {
            "nodes": len(system.labels(only_alive=False)),
            "queries": len(pairs),
            "failure_level": failure_level,
            "object_seconds": object_seconds,
            "fastpath_compile_seconds": compiled - started,
            "fastpath_route_seconds": finished - compiled,
            "speedup": object_seconds / (finished - compiled),
            "object_successes": len(pairs) - failures,
            "fastpath_successes": int(batch.success.sum()),
            "object_success_rate": 1.0 - failures / len(pairs),
            "fastpath_success_rate": batch.success_rate(),
            "object_mean_hops": float(np.mean(hops)) if hops else 0.0,
            "fastpath_mean_hops": batch.mean_hops(),
        }
    return results


def check_protocol_speedups(stats: dict) -> None:
    """The acceptance assertions: >= 10x per protocol, identical statistics."""
    for protocol, entry in stats.items():
        # The engines are hop-for-hop identical, so the integer success
        # counts must match exactly (rates are derived floats).
        assert entry["object_successes"] == entry["fastpath_successes"], (
            f"{protocol}: success counts diverge "
            f"({entry['object_successes']} vs {entry['fastpath_successes']})"
        )
        assert abs(entry["object_mean_hops"] - entry["fastpath_mean_hops"]) < 1e-9, (
            f"{protocol}: mean hops diverge "
            f"({entry['object_mean_hops']:.4f} vs {entry['fastpath_mean_hops']:.4f})"
        )
        assert entry["speedup"] >= 10.0, (
            f"{protocol}: batched speedup {entry['speedup']:.1f}x < 10x"
        )


def measure_protocol_engine_comparison(**kwargs) -> tuple[dict, dict]:
    """Run the engine comparison inside a telemetry session; return (stats, dump)."""
    with telemetry_session() as tel:
        stats = run_protocol_engine_comparison(**kwargs)
    return stats, tel.to_dict()


def write_baselines_artifact(
    stats: dict, path: Path | None = None, telemetry: dict | None = None
) -> Path:
    """Write the per-protocol engine comparison as BENCH_baselines.json."""
    from repro.experiments.runner import ExperimentTable

    if path is None:
        path = Path(__file__).resolve().parent.parent / "BENCH_baselines.json"
    table = ExperimentTable(
        title=f"protocol engine speedups @ {QUERIES} queries, "
        f"{FAILURE_LEVEL:.0%} failed nodes",
        columns=[
            "protocol", "nodes", "object_s", "fastpath_compile_s",
            "fastpath_route_s", "speedup", "success_rate", "mean_hops",
        ],
        notes="object and fastpath statistics are identical at the same seed; "
        "only one copy of each is shown.",
    )
    for protocol, entry in stats.items():
        table.add_row(
            protocol,
            entry["nodes"],
            entry["object_seconds"],
            entry["fastpath_compile_seconds"],
            entry["fastpath_route_seconds"],
            entry["speedup"],
            entry["fastpath_success_rate"],
            entry["fastpath_mean_hops"],
        )
    # The spec must describe the run the rows record: n = 2^BITS per
    # protocol, TERMINATE recovery (the baselines' own scalar rule and the
    # batch router's default), the benchmark workload and failure level.
    spec = get_scenario("baselines").make_spec(
        overrides={
            "topology.nodes": 1 << BITS,
            "workload.searches": QUERIES,
            "failures.levels": (FAILURE_LEVEL,),
            "engine": "fastpath",
            "routing.recovery": "terminate",
        },
        seed=SEED,
    )
    record = RunResult(
        scenario="bench-baselines",
        spec=spec,
        engine_requested="fastpath",
        engine_used="fastpath",
        tables=[table],
        seconds=sum(
            entry["object_seconds"] + entry["fastpath_route_seconds"]
            for entry in stats.values()
        ),
    )
    return write_bench_result(record, path, telemetry=telemetry)


def _report_protocols(stats: dict) -> str:
    lines = [f"\nprotocol engines @ {QUERIES} queries, {FAILURE_LEVEL:.0%} failed nodes"]
    for protocol, entry in stats.items():
        lines.append(
            f"  {protocol:10s} n={entry['nodes']:6d}  "
            f"object {entry['object_seconds']:6.2f}s | "
            f"fastpath {entry['fastpath_route_seconds']:5.2f}s | "
            f"{entry['speedup']:6.1f}x | success {entry['fastpath_success_rate']:.4f}"
        )
    return "\n".join(lines)


def test_baseline_comparison(benchmark, paper_scale):
    """Hop counts and failure behaviour across all implemented systems."""
    bits = 14 if paper_scale else 10
    searches = 1000 if paper_scale else 200

    spec = get_scenario("baselines").make_spec(
        overrides={
            "topology.nodes": 1 << bits,
            "workload.searches": searches,
            "failures.levels": (0.3,),
        },
        seed=4,
    )
    table = benchmark.pedantic(run, args=(spec,), rounds=1, iterations=1).raw
    print()
    print(table.to_text())

    systems = table.column("system")
    hops = dict(zip(systems, table.column("mean_hops")))
    healthy_failures = dict(zip(systems, table.column("failed_fraction")))
    degraded_failures = dict(
        zip(systems, table.column("failed_fraction_after_failures"))
    )
    this_paper = next(s for s in systems if "this-paper" in s)
    can = next(s for s in systems if s.startswith("can"))
    chord = next(s for s in systems if s == "chord")

    benchmark.extra_info["hops_this_paper"] = hops[this_paper]
    benchmark.extra_info["hops_chord"] = hops[chord]
    benchmark.extra_info["hops_can"] = hops[can]

    # All systems deliver everything on the intact network.
    assert all(f == 0.0 for f in healthy_failures.values())
    # CAN's polynomial routing needs clearly more hops than the log systems.
    assert hops[can] > 1.5 * hops[this_paper]
    assert hops[can] > 1.5 * hops[chord]
    # This paper's overlay with backtracking tolerates the failures at least
    # as well as every baseline (no baseline runs a repair protocol here).
    assert all(
        degraded_failures[this_paper] <= degraded_failures[other] + 0.02
        for other in systems
    )


def test_protocol_fastpath_speedups(benchmark, paper_scale):
    """Every baseline protocol must batch-route >= 10x faster, identically."""
    stats, telemetry = benchmark.pedantic(
        measure_protocol_engine_comparison,
        kwargs={"paper_scale": paper_scale},
        rounds=1,
        iterations=1,
    )
    print(_report_protocols(stats))
    for protocol, entry in stats.items():
        benchmark.extra_info[f"{protocol}_speedup"] = entry["speedup"]
    artifact = write_baselines_artifact(stats, telemetry=telemetry)
    print(f"  artifact: {artifact}")
    check_protocol_speedups(stats)


if __name__ == "__main__":
    protocol_stats, run_telemetry = measure_protocol_engine_comparison()
    print(_report_protocols(protocol_stats))
    artifact = write_baselines_artifact(protocol_stats, telemetry=run_telemetry)
    print(f"  artifact: {artifact}")
    check_protocol_speedups(protocol_stats)
    print("\nall assertions passed (>= 10x batched routing per protocol, "
          "statistics identical)")
