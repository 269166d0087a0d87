#!/usr/bin/env python3
"""Failure study: reproduce the paper's Figure 6 and Figure 7 at laptop scale.

This example runs the `figure6` and `figure7` experiments at a
smaller scale and prints the resulting series, so you can eyeball the paper's
headline claims in under a minute:

* the terminate strategy loses slightly fewer than ``p`` of its searches when
  a fraction ``p`` of the nodes has failed;
* backtracking is dramatically more robust, at the price of longer routes;
* the heuristically constructed network behaves comparably to the ideal one.

Run with::

    python examples/failure_study.py
"""

from __future__ import annotations

from repro.scenarios import get_scenario, run


def main() -> None:
    print("=" * 72)
    print("Figure 6 (scaled down): 4096 nodes, 300 searches per failure level")
    print("=" * 72)
    figure6 = run(
        get_scenario("figure6").make_spec(
            overrides={
                "topology.nodes": 1 << 12,
                "workload.searches": 300,
                "failures.levels": (0.0, 0.2, 0.4, 0.6, 0.8),
            },
            seed=11,
        )
    ).raw
    table_a, table_b = figure6.to_tables()
    print(table_a.to_text())
    print()
    print(table_b.to_text())

    print()
    print("=" * 72)
    print("Figure 7 (scaled down): 2048 nodes, constructed vs ideal network")
    print("=" * 72)
    figure7 = run(
        get_scenario("figure7").make_spec(
            overrides={
                "topology.nodes": 1 << 11,
                "workload.iterations": 2,
                "workload.searches": 200,
                "failures.levels": (0.0, 0.3, 0.6, 0.9),
            },
            seed=12,
        )
    ).raw
    print(figure7.to_table().to_text())

    print()
    print("Observations to compare against the paper:")
    terminate = figure6.failed_fraction["terminate"]
    backtrack = figure6.failed_fraction["backtrack"]
    print(f"  * terminate loses {terminate[-1]:.0%} of searches at 80% failed nodes")
    print(f"  * backtracking loses only {backtrack[-1]:.0%} at the same failure level")
    print(
        "  * the constructed network's failure curve stays within "
        f"{max(abs(c - i) for c, i in zip(figure7.constructed_failed_fraction, figure7.ideal_failed_fraction)):.2f} "
        "of the ideal network's"
    )


if __name__ == "__main__":
    main()
