"""Benchmark regenerating Figure 7: constructed vs ideal network under failures.

Paper setup: 16384 nodes, 10 network constructions, 1000 messages, node-failure
probability 0 .. 0.9.  Expected shape: the heuristically constructed network
fails somewhat more searches than the ideally wired network, but the two are
comparable across the whole failure range.
"""

from __future__ import annotations

from repro.scenarios import get_scenario, run


def test_figure7_constructed_vs_ideal(benchmark, paper_scale):
    """Figure 7: failed-search fraction, constructed vs ideal network."""
    nodes = 16384 if paper_scale else 2048
    iterations = 10 if paper_scale else 2
    searches = 1000 if paper_scale else 200
    levels = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    spec = get_scenario("figure7").make_spec(
        overrides={
            "topology.nodes": nodes,
            "workload.iterations": iterations,
            "workload.searches": searches,
            "failures.levels": tuple(levels),
        },
        seed=2,
    )
    result = benchmark.pedantic(run, args=(spec,), rounds=1, iterations=1).raw

    print()
    print(result.to_table().to_text())
    benchmark.extra_info["nodes"] = nodes
    benchmark.extra_info["constructed_at_0.5"] = result.constructed_failed_fraction[5]
    benchmark.extra_info["ideal_at_0.5"] = result.ideal_failed_fraction[5]

    constructed = result.constructed_failed_fraction
    ideal = result.ideal_failed_fraction
    # No failures when no nodes have failed.
    assert constructed[0] == 0.0 and ideal[0] == 0.0
    # Both curves increase overall with the failure probability.
    assert constructed[-1] > constructed[1] - 0.05
    assert ideal[-1] > ideal[1] - 0.05
    # The two networks are comparable: within 0.25 absolute of each other
    # at every failure level (the paper's curves track each other closely).
    for c, i in zip(constructed, ideal):
        assert abs(c - i) < 0.25
