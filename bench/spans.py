"""In-memory span recorder, installed from outside the program.

The traced run patches timing wrappers onto the public entry points of each
layer (classes and module attributes under ``repro``); nothing inside
``src/repro`` knows about it.  A span records name, start, end, the span that
caused it, a request id (the batch or round the driver was issuing) and the
phase of the run it belongs to.  Spans stay in memory until the workload
ends.  A layer is the first dotted segment of a span name; self time is
duration minus the time covered by child spans.

``python3 bench/spans.py TRACE.json`` summarises a file written by
``run.py --trace-out``: per phase and span name, the call count, total and
self seconds, and the self time's share of the phase's traced time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module[.owner].attribute`` as span ``name``."""

    name: str
    module: str
    owner: str | None
    attribute: str


@dataclass
class Tracer:
    spans: list[dict] = field(default_factory=list)
    #: Stamped on new spans; the driver sets them per phase and per batch / round.
    phase: str = ""
    request: Any = None
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def _wrap(self, name: str, function: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "phase": self.phase,
                "request": self.request,
                "start": time.perf_counter(),
                "end": None,
            }
            spans.append(record)
            stack.append(record["id"])
            try:
                return function(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, targets: Iterable[Target], phase: str) -> None:
        self.phase = phase
        for target in targets:
            holder = importlib.import_module(target.module)
            if target.owner is not None:
                holder = getattr(holder, target.owner)
            raw = vars(holder)[target.attribute]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(target.name, raw.__func__))
            else:
                wrapped = self._wrap(target.name, raw)
            self._undo.append((holder, target.attribute, raw))
            setattr(holder, target.attribute, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, attribute, raw = self._undo.pop()
            setattr(holder, attribute, raw)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration(span)
    return {span["id"]: duration(span) - covered[span["id"]] for span in spans}


def named(spans: Iterable[dict], name: str, phase: str | None = None) -> list[dict]:
    """The spans called ``name`` (of one phase, when given), in order."""
    return [
        s for s in spans if s["name"] == name and (phase is None or s["phase"] == phase)
    ]


def durations(spans: Iterable[dict], name: str, phase: str | None = None) -> list[float]:
    """Wall seconds of every span called ``name``."""
    return [duration(s) for s in named(spans, name, phase)]


def self_by_name(spans: list[dict], phase: str) -> dict[str, float]:
    """Span name -> summed self seconds over the spans of ``phase``."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["phase"] == phase:
            totals[span["name"]] += own[span["id"]]
    return dict(totals)


def check_well_formed(spans: list[dict]) -> list[str]:
    """Problems with the span tree (empty when every span is closed and nested)."""
    problems = [
        f"span {span['id']} ({span['name']}) never closed"
        for span in spans
        if span["end"] is None
    ]
    if problems:
        return problems
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            if parent not in by_id:
                problems.append(f"span {span['id']} has unknown parent {parent}")
            elif not (
                by_id[parent]["start"] <= span["start"] and span["end"] <= by_id[parent]["end"]
            ):
                problems.append(f"span {span['id']} is not inside its parent {parent}")
        if own[span["id"]] < -1e-9:
            problems.append(f"span {span['id']} has negative self time")
    return problems


def summary(spans: list[dict]) -> str:
    """Per phase and span name: calls, total seconds, self seconds, self share."""
    own = self_times(spans)
    rows: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span["phase"], span["name"]]
        row[0] += 1
        row[1] += duration(span)
        row[2] += own[span["id"]]
    phase_self: dict[str, float] = defaultdict(float)
    for (phase, _name), row in rows.items():
        phase_self[phase] += row[2]
    lines = [f"{'phase':<8} {'span':<30} {'calls':>7} {'total s':>10} {'self s':>10} {'share':>7}"]
    for (phase, name), (calls, total, self_s) in sorted(rows.items()):
        lines.append(
            f"{phase:<8} {name:<30} {calls:>7} {total:>10.4f} {self_s:>10.4f} "
            f"{self_s / phase_self[phase]:>7.1%}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    with open(sys.argv[1]) as handle:
        print(summary(json.load(handle)))
