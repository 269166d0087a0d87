#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads, every metric by name.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T]
                         [--trace 0|1 | --traced] [--smoke] [--repeat N]
                         [--json OUT] [--trace-out FILE]

Without ``--workload`` every workload runs, one after the other.  Each
workload runs in a fresh child process of this script (threads pinned to 1):
first the output checks (the drivers against the scalar oracle at a small
size), then the measurement.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` installs the span wrappers and reports the per-layer metrics;
both are named in ``BENCHMARK.json``.  With ``--workload`` the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

Nothing is written unless ``--json`` / ``--trace-out`` say where.
"""

from __future__ import annotations

import time

_STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import metrics  # noqa: E402  (bench/ is the script directory, hence on sys.path)

DEFAULT_SEED = 11
#: Episodes (set-up, cold batch, warm-up, a slice of the sustained phase) per
#: run.  The first set-up is set aside; ``setup_s`` is the median of the rest.
EPISODES = 4
SMOKE_EPISODES = 2
#: What every child runs under.  One thread per numeric library; and glibc
#: keeps freed arrays inside the process (no mmap, no trim) instead of
#: handing them back to the OS to be faulted in again: on a ballooned VM a
#: first touch of a page costs up to a millisecond, which is the host's
#: doing, not the program's, and made one set-up in five take three times
#: as long as the others.
CHILD_ENVIRONMENT = {
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "2147483647",
}
#: The driver allows a run 180 s; the child is cut off before that.
WALL_LIMIT_S = 170.0
WORKLOAD_NAMES = [w.name for w in metrics.WORKLOADS]


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a parent's reading is comparable
    # with its child's: set-up time includes the interpreter's own start.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Child side: runs inside a fresh process, imports the program
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _tracing(tracer, workload, phase: str):
    """Span wrappers on ``workload.targets`` while open (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.install(workload.targets, phase)
    try:
        yield
    finally:
        tracer.uninstall()


def child_main(options) -> int:
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    from load import quiet
    from repro.telemetry import session as telemetry_session

    record: dict = {"import_s": _clock() - options.spawned_at}
    import checks

    record["checks"] = checks.run(options.workload, options.seed)

    tracer = spans.Tracer() if options.trace else None
    workload = workloads.make(options.workload, options.seed, options.size, tracer)
    episodes = SMOKE_EPISODES if options.size == "smoke" else EPISODES
    if not workload.rebuilds:
        episodes = 1
    slice_s = options.seconds * workload.sustain_share / episodes
    reference = workload.new_samples()
    traced = reference if tracer is None else workload.new_samples()
    counters: Counter = Counter()
    setup_s: list[float] = []
    try:
        for _ in range(episodes):
            # Drop the last episode's arrays first: the next set-up must
            # find the memory free again.
            workload.close()
            gc.collect()
            with _tracing(tracer, workload, "setup"):
                started = _clock()
                workload.setup()
                setup_s.append(_clock() - started)
                workload.cold()
            workload.warm_up()
            if tracer is None:
                workload.sustain(slice_s, reference)
                continue
            # Tracing off then on within each episode: the first half is the
            # reference the tracing overhead is measured against.
            workload.sustain(slice_s / 2, reference)
            with _tracing(tracer, workload, "sustain"), telemetry_session() as telemetry:
                workload.sustain(slice_s / 2, traced)
            counters.update({name: c.value for name, c in telemetry.counters.items()})
        with _tracing(tracer, workload, "side"):
            workload.side(options.seconds * (1.0 - workload.sustain_share))
            workload.more_cold()

        totals = [reference] if traced is reference else [reference, traced]
        record["attempted"] = sum(s.lookups for s in totals) + workload.other_lookups
        record["failed"] = sum(s.violations for s in totals) + workload.other_violations
        record["digest"] = workload.digest(reference)
        record["samples"] = len(reference.batch_ms)
        record["cold_samples"] = len(workload.cold_ms)
        record["setup_samples"] = setup_s
        values = workload.end_to_end(reference)
        values["setup_s"] = record["import_s"] + statistics.median(setup_s[1:] or setup_s)
        if tracer is not None:
            values.update(workload.per_layer(reference, traced, tracer.spans))
            own = spans.self_by_name(tracer.spans, "sustain")
            attributed = sum(v for k, v in own.items() if k != "scenarios.run")
            batches = max(counters["route.batches"], 1)
            queries = max(counters["route.queries"], 1)
            values.update({
                "harness.import_s": record["import_s"],
                "harness.first_setup_s": setup_s[0],
                "trace.overhead_share": traced.unit_level(quiet) / reference.unit_level(quiet) - 1.0,
                "trace.attributed_share": attributed / sum(traced.unit_s),
                "trace.spans": float(len(tracer.spans)),
                "router.rounds": counters["route.rounds"] / batches,
                "router.rows_scanned": counters["route.rows_scanned"] / queries,
            })
            for strategy in ("liveness_reuse", "row_splice", "full_rebuild"):
                values[f"delta.strategy.{strategy}"] = float(
                    counters[f"refresh.strategy.{strategy}"]
                )
            record["span_problems"] = spans.check_well_formed(tracer.spans)
            if options.trace_out:
                Path(options.trace_out).write_text(json.dumps(tracer.spans))
    finally:
        workload.close()
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["values"] = values
    record["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# Parent side: spawns the child, judges, prints
# ---------------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def _spawn(options, workload: str) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(options.seed),
        "--seconds", repr(options.seconds), "--trace", str(int(options.trace)),
        "--size", "smoke" if options.smoke else "full",
        "--spawned-at", repr(_clock()),
    ]
    if options.trace_out:
        command += ["--trace-out", options.trace_out]
    # Its own process group: the fan-out workers and multiprocessing's
    # resource tracker are the child's children, and none may outlive the run.
    child = subprocess.Popen(
        command, env=dict(os.environ, **CHILD_ENVIRONMENT), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=WALL_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: exceeded {WALL_LIMIT_S:.0f} s") from None
    finally:
        _end_group(child)
    if child.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with code {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def _end_group(child: subprocess.Popen, grace_s: float = 5.0) -> None:
    """Return when no process of the child's group is left; kill what lingers."""
    deadline = _clock() + (grace_s if child.poll() is not None else 0.0)
    while True:
        try:
            os.killpg(child.pid, signal.SIGKILL if _clock() >= deadline else 0)
        except ProcessLookupError:
            break
        child.poll()  # reaps the leader, or its zombie keeps the group alive
        time.sleep(0.01)
    child.wait()


def _expected_digest(workload: str, options) -> str | None:
    expected = json.loads((HERE / "expected.json").read_text())
    if options.seed != expected["seed"]:
        return None
    return expected["smoke" if options.smoke else "full"].get(workload)


def run_workload(workload: str, options) -> dict:
    """Check and measure one workload; returns its record (see ``--json``)."""
    measured = _spawn(options, workload)
    problems = list(measured.get("span_problems", []))
    if measured["failed"]:
        problems.append(f"{measured['failed']} lookups broke a result invariant")
    expected = _expected_digest(workload, options)
    if expected is not None and expected != measured["digest"]:
        problems.append(f"result_digest {measured['digest']} != expected {expected}")

    values = measured["values"]
    unnamed = set(values) - {m.name for m in metrics.END_TO_END + metrics.PER_LAYER}
    if unnamed:
        raise ChildFailed(f"{workload}: metrics no table names: {sorted(unnamed)}")
    if options.trace:
        table = metrics.PER_LAYER
        # A layer this workload does not run reports 0 for its metrics.
        values = {m.name: values.get(m.name, 0.0) for m in table}
    else:
        table = metrics.END_TO_END
        missing = [m.name for m in table if not values.get(m.name)]
        if missing:
            raise ChildFailed(f"{workload}: end-to-end metrics missing or zero: {missing}")
    return {
        "workload": workload,
        "correct": not problems,
        "problems": problems,
        "checks": measured["checks"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "result_digest": measured["digest"],
        "batch_samples": measured["samples"],
        "cold_samples": measured["cold_samples"],
        "import_s": measured["import_s"],
        "setup_samples": measured["setup_samples"],
        "numpy": measured["numpy"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    }


def environment(options) -> dict:
    cpu = commit = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            pass
        else:
            if done.returncode == 0:
                commit = done.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": None,  # filled in from the first child
        "commit": commit,
        "seed": options.seed,
        "seconds": options.seconds,
        "trace": bool(options.trace),
        "size": "smoke" if options.smoke else "full",
    }


def report(record: dict) -> None:
    status = "correct" if record["correct"] else "INCORRECT: " + "; ".join(record["problems"])
    print(
        f"\n== {record['workload']}: {status} — {record['attempted']} lookups attempted, "
        f"{record['failed']} failed; {record['batch_samples']} batch samples, "
        f"{record['cold_samples']} cold samples\n   result_digest {record['result_digest']}"
    )
    for check in record["checks"]:
        print(f"   check passed: {check}")
    for name, entry in record["metrics"].items():
        print(f"   {name:<36} {entry['value']:>16.6g} {entry['unit']}")


def parent_main(options) -> int:
    names = [options.workload] if options.workload else WORKLOAD_NAMES
    document = {"environment": environment(options), "workloads": []}
    for name in names * options.repeat:
        try:
            record = run_workload(name, options)
        except ChildFailed as failure:
            print(f"bench: {failure}", file=sys.stderr)
            return 1
        document["environment"]["numpy"] = record.pop("numpy")
        document["workloads"].append(record)
        report(record)
    print("\nenvironment: " + json.dumps(document["environment"]))
    if options.json:
        Path(options.json).write_text(json.dumps(document, indent=2))
    if options.workload:
        record = document["workloads"][-1]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
    return 0 if all(r["correct"] for r in document["workloads"]) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true", help="n = 2^10, a dozen batches, no time budget")
    parser.add_argument("--repeat", type=int, default=1, help="measure everything this many times (a set of runs for agree.py)")
    parser.add_argument("--json", metavar="OUT", help="write the full result document here")
    parser.add_argument("--trace-out", metavar="FILE", help="write the traced run's spans here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=_STARTED, help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: the program is not here ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    if options.smoke:
        options.seconds = 0.0
    if options.trace_out:
        if not (options.workload and options.trace):
            parser.error("--trace-out needs --workload and --trace 1")
        options.trace_out = str(Path(options.trace_out).resolve())
    if options.child:
        return child_main(options)
    return parent_main(options)


if __name__ == "__main__":
    raise SystemExit(main())
