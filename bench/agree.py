#!/usr/bin/env python3
"""Do two result files of ``run.py --json`` agree within the benchmark's bounds?

    python3 bench/agree.py A.json B.json

One row per (workload, end-to-end metric): A's and B's median, the change of
B against A in the metric's worse direction, the run-to-run spread (distance
between the quartiles over the median, the wider side), and a verdict:

``within``      B's median is no worse than A's by more than the bound;
``worse``       it is worse by more than the bound;
``unresolved``  the spread is wider than the bound, so the medians cannot
                tell — unless every run of B reads better than every run of A.

Files written with ``--repeat N`` hold N runs per workload; a single run has
no spread and is compared on its value alone.  Results that are deterministic
per seed whatever the run length (``result_digest``, ``bytes_per_node``) must
be equal when both files used the same seed.  Exit code 1 on any ``worse`` or
unequal exact result.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

EXACT = ("bytes_per_node",)


def load(path: str) -> tuple[dict, dict[str, list[dict]]]:
    document = json.loads(Path(path).read_text())
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for record in document["workloads"]:
        by_workload[record["workload"]].append(record)
    return document["environment"], by_workload


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, worsening of B's median against A's, the wider spread)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (median_b - median_a) / abs(median_a)
    wider = max(spread(a), spread(b))
    if wider > bound:
        b_always_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("within" if b_always_better else "unresolved"), worsening, wider
    return ("worse" if worsening > bound else "within"), worsening, wider


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    environment_a, runs_a = load(path_a)
    environment_b, runs_b = load(path_b)
    same_seed = environment_a["seed"] == environment_b["seed"]
    failures = 0
    print(f"{'workload':<20} {'metric':<20} {'A median':>12} {'B median':>12} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a[workload]]
            b = [r["metrics"][name]["value"] for r in runs_b[workload]]
            outcome, worsening, wider = verdict(a, b, metric["better"], metric["bound"])
            if name in EXACT and same_seed and set(a) != set(b):
                outcome = "worse (must be equal at the same seed)"
            failures += outcome.startswith("worse")
            print(
                f"{workload:<20} {name:<20} {statistics.median(a):>12.6g} "
                f"{statistics.median(b):>12.6g} {worsening:>+9.3f} {wider:>7.3f} "
                f"{metric['bound']:>6}  {outcome}"
            )
        if same_seed:
            digests = {r["result_digest"] for r in runs_a[workload] + runs_b[workload]}
            equal = len(digests) == 1
            failures += not equal
            print(f"{workload:<20} {'result_digest':<20} {'':>12} {'':>12} {'':>9} {'':>7} {'exact':>6}  {'within (equal)' if equal else 'worse (digests differ)'}")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return compare(argv[0], argv[1], benchmark)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
