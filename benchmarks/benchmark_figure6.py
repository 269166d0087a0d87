"""Benchmark regenerating Figure 6: routing under node failures.

Paper setup: 2^17 nodes, 17 links, 1000 simulations x 100 messages per failure
level, failure levels 0 .. 0.8.  Expected shape: the terminate strategy loses
slightly fewer than p of its searches, random re-route is better, backtracking
is dramatically better (< 30% failed searches at 80% failed nodes at full
scale), and delivery time grows moderately with p (roughly 9 -> 17 hops).
"""

from __future__ import annotations

from repro.scenarios import get_scenario, run


def test_figure6_failure_recovery(benchmark, paper_scale):
    """Figure 6(a)/(b): failed searches and delivery time vs failed nodes."""
    nodes = (1 << 15) if paper_scale else (1 << 12)
    searches = 2000 if paper_scale else 250
    levels = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]

    spec = get_scenario("figure6").make_spec(
        overrides={
            "topology.nodes": nodes,
            "workload.searches": searches,
            "failures.levels": tuple(levels),
        },
        seed=1,
    )
    result = benchmark.pedantic(run, args=(spec,), rounds=1, iterations=1).raw

    table_a, table_b = result.to_tables()
    print()
    print(table_a.to_text())
    print()
    print(table_b.to_text())

    terminate = result.failed_fraction["terminate"]
    reroute = result.failed_fraction["random-reroute"]
    backtrack = result.failed_fraction["backtrack"]
    benchmark.extra_info["nodes"] = nodes
    benchmark.extra_info["terminate_at_0.5"] = terminate[5]
    benchmark.extra_info["backtrack_at_0.5"] = backtrack[5]
    benchmark.extra_info["backtrack_at_0.8"] = backtrack[8]

    # Shape claims from the paper.
    # (1) No failures -> no failed searches for any strategy.
    assert terminate[0] == 0.0 and backtrack[0] == 0.0 and reroute[0] == 0.0
    # (2) Terminate loses roughly at most the failed fraction (paper: < p).
    for level, failed in zip(levels, terminate):
        assert failed <= 1.3 * level + 0.05
    # (3) Backtracking dominates terminate at every level, by a wide margin at 0.5+.
    assert all(b <= t + 1e-9 for b, t in zip(backtrack, terminate))
    assert backtrack[5] < 0.5 * max(terminate[5], 0.02) + 0.05
    # (4) Random re-route sits between the two at moderate failure levels.
    assert reroute[5] <= terminate[5] + 0.05
    # (5) Successful backtracking searches take longer than terminate ones at high p.
    assert result.mean_hops["backtrack"][6] >= result.mean_hops["terminate"][6] - 1.0
