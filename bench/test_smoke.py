"""Smoke test of the benchmark harness: ``pytest bench -q``.

Not part of the tier-1 ``testpaths``.  ``run.py --smoke`` (n = 2^10, a dozen
batches per phase) must finish quickly and emit every metric named in
``BENCHMARK.json`` — finite, right unit, for every workload — and the traced
run must leave a well-formed span tree.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import agree  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _check_metrics(record: dict, table: list[dict], may_be_zero: bool) -> None:
    assert record["correct"], record["problems"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert list(record["metrics"]) == [m["name"] for m in table]
    for metric in table:
        entry = record["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]
        if not may_be_zero:
            assert entry["value"] > 0, metric["name"]


def test_benchmark_json_is_generated_from_the_metric_tables():
    assert BENCHMARK == metrics.benchmark_json()
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert len(BENCHMARK["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_readme_glossary_is_generated_from_the_metric_tables():
    assert metrics.glossary() in (HERE / "README.md").read_text()


def test_smoke_run_emits_every_end_to_end_metric(tmp_path):
    out = tmp_path / "result.json"
    started = time.monotonic()
    done = _run("--smoke", "--json", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"
    document = json.loads(out.read_text())
    assert {"cpu", "nproc", "python", "numpy", "commit", "seed"} <= set(document["environment"])
    assert [r["workload"] for r in document["workloads"]] == WORKLOADS
    for record in document["workloads"]:
        _check_metrics(record, BENCHMARK["end_to_end"], may_be_zero=False)
        assert record["checks"], "every workload has output checks"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_emits_every_per_layer_metric(workload, tmp_path):
    trace = tmp_path / "spans.json"
    done = _run("--smoke", "--traced", "--workload", workload, "--trace-out", str(trace))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    _check_metrics(
        {**line, "problems": []}, BENCHMARK["per_layer"], may_be_zero=True
    )
    recorded = json.loads(trace.read_text())
    assert recorded, "the traced run recorded spans"
    assert spans.check_well_formed(recorded) == []
    assert all(v >= -1e-9 for v in spans.self_times(recorded).values())
    assert line["metrics"]["trace.spans"]["value"] == len(recorded)


def test_agree_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert agree.verdict(steady, [v * 1.02 for v in steady], "lower", 0.05)[0] == "within"
    assert agree.verdict(steady, [v * 1.10 for v in steady], "lower", 0.05)[0] == "worse"
    assert agree.verdict(steady, [v * 0.90 for v in steady], "higher", 0.05)[0] == "worse"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert agree.verdict(noisy, [v * 1.10 for v in noisy], "lower", 0.05)[0] == "unresolved"
    assert agree.verdict(noisy, [v * 0.50 for v in noisy], "lower", 0.05)[0] == "within"


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
