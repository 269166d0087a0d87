"""Benchmark regenerating Table 1: measured delivery time vs bound shapes.

Each sub-benchmark sweeps one row of the paper's Table 1 and checks that the
measured mean hop counts follow the corresponding asymptotic shape:

* row 1 — hops grow like ``log^2 n`` (single long link, no failures);
* row 2 — hops fall as the number of links grows (``log^2 n / l``);
* row 3 — hops track ``log_b n`` for the deterministic base-``b`` scheme;
* row 4 — hops grow as link survival probability ``p`` falls (``1/p``);
* row 5 — same for the deterministic powers-of-``b`` scheme (``b log n / p``);
* row 6 — hops grow as the node-failure probability rises (``1/(1-p)``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import fit_log_squared_model, goodness_of_fit_r2
from repro.scenarios import get_scenario, run


def test_table1_all_rows(benchmark, paper_scale):
    """Regenerate every row of Table 1 and verify the bound shapes."""
    if paper_scale:
        sizes = [1 << k for k in range(10, 17)]
        searches = 500
    else:
        sizes = [1 << k for k in range(8, 13)]
        searches = 150

    spec = get_scenario("table1").make_spec(
        overrides={"extras.sizes": tuple(sizes), "workload.searches": searches}, seed=3
    )
    result = benchmark.pedantic(run, args=(spec,), rounds=1, iterations=1).raw

    print()
    print(result.to_text())

    # --- Row 1: single link, hops ~ log^2 n ------------------------------
    ns = result.single_link.column("n")
    hops = result.single_link.column("measured_hops")
    a, b = fit_log_squared_model(ns, hops)
    predicted = [a * np.log2(n) ** 2 + b for n in ns]
    r2 = goodness_of_fit_r2(hops, predicted)
    benchmark.extra_info["row1_log2sq_r2"] = r2
    assert a > 0, "hops must grow with log^2 n"
    assert r2 > 0.8, f"log^2 n model fits poorly (R^2={r2:.3f})"
    assert hops[-1] > hops[0], "hops must increase with n"

    # --- Row 2: more links -> fewer hops, roughly like 1/l ---------------
    links = result.polylog_links.column("links")
    link_hops = result.polylog_links.column("measured_hops")
    assert link_hops[-1] < link_hops[0], "hops must fall as links increase"
    improvement = link_hops[0] / max(link_hops[-1], 1e-9)
    ratio = links[-1] / links[0]
    benchmark.extra_info["row2_improvement"] = improvement
    assert improvement > 0.25 * ratio ** 0.5, "improvement far weaker than predicted"

    # --- Row 3: deterministic base-b, hops bounded by O(log_b n) ----------
    # Theorem 14 is an upper bound: measured greedy hops must stay below the
    # log_b n shape (up to a small additive constant) and must not grow when
    # the base (and with it the per-node link count) grows.
    det_hops = result.deterministic.column("measured_hops")
    det_shapes = result.deterministic.column("bound_shape_log_b_n")
    benchmark.extra_info["row3_hops"] = det_hops
    for measured, shape in zip(det_hops, det_shapes):
        assert measured <= shape + 2.0, (
            f"measured {measured:.2f} exceeds the O(log_b n) shape {shape:.2f}"
        )
    assert det_hops[0] >= det_hops[-1] - 0.5, "larger bases should not route slower"

    # --- Row 4: link failures, hops grow as p falls -----------------------
    p_values = result.link_failures_random.column("p_link_alive")
    failure_hops = result.link_failures_random.column("measured_hops")
    assert failure_hops[-1] > failure_hops[0], "hops must grow as links fail"
    benchmark.extra_info["row4_slowdown"] = failure_hops[-1] / failure_hops[0]

    # --- Row 5: deterministic scheme under link failures ------------------
    det_failure_hops = result.link_failures_deterministic.column("measured_hops")
    assert det_failure_hops[-1] > det_failure_hops[0]

    # --- Row 6: node failures, hops grow as failure probability rises -----
    node_failure_hops = result.node_failures.column("measured_hops")
    assert node_failure_hops[-1] >= node_failure_hops[0] - 0.5
    benchmark.extra_info["row6_slowdown"] = (
        node_failure_hops[-1] / max(node_failure_hops[0], 1e-9)
    )

    # --- Binomially placed nodes: delivery time stays log^2 of occupancy --
    binomial_hops = result.binomial_nodes.column("measured_hops")
    assert max(binomial_hops) < 4 * max(hops), (
        "binomial placement should not blow up delivery time"
    )
