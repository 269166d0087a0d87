"""Benchmarks for the ablation studies called out in DESIGN.md.

* Link-replacement policy (Section 5): inverse-distance vs oldest-link vs
  never-replace, measured by distance to the ideal 1/d distribution.
* Backtrack depth: the paper fixes 5; the sweep shows diminishing returns.
* Power-law exponent: exponent 1 should be at least as good as 0 or 2.
* Byzantine routing (Section 7 future work): redundant multi-path routing
  tolerates a larger compromised fraction than plain greedy routing.
"""

from __future__ import annotations

from repro.scenarios import get_scenario, run


def _run_table(benchmark, scenario: str, overrides: dict, seed: int):
    """Benchmark one registered ablation scenario; return its result table."""
    spec = get_scenario(scenario).make_spec(overrides=overrides, seed=seed)
    return benchmark.pedantic(run, args=(spec,), rounds=1, iterations=1).raw


def test_ablation_replacement_policy(benchmark, paper_scale):
    """Section-5 ablation: link-replacement policies."""
    nodes = (1 << 13) if paper_scale else (1 << 10)
    table = _run_table(
        benchmark, "ablation-replacement",
        {"topology.nodes": nodes, "workload.networks": 2}, seed=0,
    )
    print()
    print(table.to_text())
    errors = dict(zip(table.column("policy"), table.column("max_absolute_error")))
    benchmark.extra_info.update({f"max_error_{k}": v for k, v in errors.items()})
    # The paper's two replacement policies should be close to each other.
    assert abs(errors["inverse-distance"] - errors["oldest-link"]) < 0.05
    # Both must track the ideal distribution reasonably well.
    assert errors["inverse-distance"] < 0.1
    assert errors["oldest-link"] < 0.1


def test_ablation_backtrack_depth(benchmark, paper_scale):
    """Backtracking-depth sweep at 50% failed nodes."""
    nodes = (1 << 14) if paper_scale else (1 << 12)
    searches = 1000 if paper_scale else 300
    table = _run_table(
        benchmark, "ablation-backtrack",
        {"topology.nodes": nodes, "failures.levels": (0.5,), "workload.searches": searches},
        seed=1,
    )
    print()
    print(table.to_text())
    depths = table.column("backtrack_depth")
    failed = table.column("failed_fraction")
    benchmark.extra_info["failed_at_depth_5"] = failed[depths.index(5)]
    # Deeper backtracking never hurts by much and the paper's depth 5 already
    # captures most of the benefit relative to depth 1.
    assert failed[depths.index(5)] <= failed[depths.index(1)] + 0.02
    assert failed[-1] <= failed[0] + 0.02


def test_ablation_exponent(benchmark, paper_scale):
    """Power-law exponent sweep: exponent 1 is the right choice on the line."""
    nodes = (1 << 14) if paper_scale else (1 << 12)
    searches = 800 if paper_scale else 300
    table = _run_table(
        benchmark, "ablation-exponent",
        {"topology.nodes": nodes, "extras.exponents": (0.0, 0.5, 1.0, 1.5, 2.0),
         "workload.searches": searches},
        seed=2,
    )
    print()
    print(table.to_text())
    exponents = table.column("exponent")
    hops = dict(zip(exponents, table.column("mean_hops")))
    benchmark.extra_info["hops_exponent_1"] = hops[1.0]
    # Exponent 1 should beat (or at least match) the extreme choices, which is
    # the empirical footprint of the paper's lower bound for bad distributions.
    assert hops[1.0] <= hops[0.0] + 0.5
    assert hops[1.0] <= hops[2.0] + 0.5


def test_extension_byzantine_routing(benchmark, paper_scale):
    """Section-7 extension: redundant routing under Byzantine drop faults."""
    nodes = (1 << 12) if paper_scale else (1 << 11)
    searches = 500 if paper_scale else 150
    table = _run_table(
        benchmark, "byzantine",
        {"topology.nodes": nodes, "failures.levels": (0.0, 0.1, 0.2, 0.3),
         "extras.redundancy": 3, "workload.searches": searches},
        seed=3,
    )
    print()
    print(table.to_text())
    plain = table.column("plain_failed_fraction")
    redundant = table.column("redundant_failed_fraction")
    benchmark.extra_info["plain_at_0.2"] = plain[2]
    benchmark.extra_info["redundant_at_0.2"] = redundant[2]
    assert plain[0] == 0.0 and redundant[0] == 0.0
    # Redundant routing should never do worse, and should clearly help at 20%+.
    assert all(r <= p + 0.02 for r, p in zip(redundant, plain))
    assert redundant[2] <= plain[2]
