"""Benchmark regenerating Figure 5: heuristic link-length distribution.

Paper setup: 2^14 nodes, 14 links each, 10 networks averaged; the derived
distribution tracks the ideal 1/d law with a maximum absolute error of about
0.022 (at length 2).  The benchmark uses 2^12 nodes and 3 networks by default;
pass ``--paper-scale`` for the full 2^14 x 10 run.
"""

from __future__ import annotations

from repro.scenarios import get_scenario, run


def test_figure5_link_distribution(benchmark, paper_scale):
    """Figure 5(a)/(b): derived vs ideal link-length distribution."""
    nodes = (1 << 14) if paper_scale else (1 << 12)
    networks = 10 if paper_scale else 3
    links = 14 if paper_scale else 12

    spec = get_scenario("figure5").make_spec(
        overrides={
            "topology.nodes": nodes,
            "topology.links_per_node": links,
            "workload.networks": networks,
        }
    )
    result = benchmark.pedantic(run, args=(spec,), rounds=1, iterations=1).raw

    print()
    print(result.to_table(max_rows=15).to_text())
    benchmark.extra_info["nodes"] = nodes
    benchmark.extra_info["networks"] = networks
    benchmark.extra_info["max_absolute_error"] = result.max_absolute_error
    benchmark.extra_info["total_variation"] = result.total_variation

    # Reproduction claims: the derived distribution tracks the ideal one.
    assert result.max_absolute_error < 0.08
    assert result.total_variation < 0.25
    # The error peaks at short lengths, as in Figure 5(b).
    assert abs(result.absolute_error[:8]).max() >= abs(result.absolute_error[64:]).max()
