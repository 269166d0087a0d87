"""Zero-overhead-when-disabled instrumentation primitives.

The repository's only performance signal used to be a single wall-clock
``seconds`` on :class:`~repro.scenarios.run.RunResult`; this module adds the
observability floor underneath it: hierarchical **phase spans** (``build`` /
``compile`` / ``route`` / ``refresh`` / ``repair``), typed **counters** and
**gauges**, and fixed-bucket **histograms** — all behind one module-level
active-:class:`Telemetry` slot.

Design rule: *disabled is the default and costs nothing measurable*.  Hot
paths fetch the active context once (``tel = telemetry.current()``) and
guard every record with a plain truthiness check (``if tel is not None``);
no object is allocated, no dict is touched, and no clock is read unless a
session is active.  The batch router's vectorized loops therefore keep
their throughput with telemetry off — property-tested to
be *bit-identical* either way in ``tests/property/test_property_telemetry.py``.

Usage::

    from repro import telemetry

    with telemetry.session() as tel:
        run_workload()
        print(tel.render())          # phase tree + counters + histograms
        data = tel.to_dict()         # JSON-ready raw tree

    # In instrumented code:
    tel = telemetry.current()
    if tel is not None:
        tel.count("route.rounds")
        tel.observe("route.frontier", active.size, buckets=POW2_BUCKETS)
        with tel.span("repair"):
            ...
"""

from __future__ import annotations

import bisect
import functools
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SpanNode",
    "Telemetry",
    "current",
    "enable",
    "disable",
    "session",
    "spanned",
    "MS_BUCKETS",
    "POW2_BUCKETS",
    "HOP_BUCKETS",
    "SECONDS_BUCKETS",
]

TELEMETRY_SCHEMA = "repro.telemetry/v1"

#: Millisecond-scale durations (per-batch route latency, delta-refresh ms).
MS_BUCKETS: tuple[float, ...] = (
    0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
    100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0,
)
#: Second-scale durations (sweep cells).
SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0,
)
#: Integer population sizes (live frontier, candidate rows) as powers of two.
POW2_BUCKETS: tuple[float, ...] = tuple(float(1 << p) for p in range(0, 21))
#: Hop counts (greedy delivery times are O(log^2 n): small integers).
HOP_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value-wins measurement that also tracks its min/max envelope."""

    __slots__ = ("name", "value", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None
        self.min: float | None = None
        self.max: float | None = None

    def set(self, value: float) -> None:
        """Record the latest value, widening the min/max envelope."""
        self.value = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def to_dict(self) -> dict:
        return {"value": self.value, "min": self.min, "max": self.max}


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max sidecars.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything beyond the last edge.
    Bulk recording (:meth:`record_many`) is a single ``np.searchsorted`` +
    ``bincount``, so instrumenting an array-native hot path costs two
    vectorized calls, not a Python loop.

    Quantiles (:meth:`quantile`) interpolate linearly inside the winning
    bucket and clamp to the exact observed min/max — good enough for p50/p99
    reporting.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty, got {bounds!r}")
        self.name = name
        self.bounds = tuple(float(bound) for bound in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def record(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def record_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations in two vectorized passes."""
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size == 0:
            return
        slots = np.searchsorted(self.bounds, array, side="left")
        for slot, slot_count in zip(*np.unique(slots, return_counts=True)):
            self.bucket_counts[int(slot)] += int(slot_count)
        self.count += int(array.size)
        self.total += float(array.sum())
        low = float(array.min())
        high = float(array.max())
        self.min = low if self.min is None else min(self.min, low)
        self.max = high if self.max is None else max(self.max, high)

    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0 < q <= 1) via in-bucket interpolation."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                high = self.bounds[index] if index < len(self.bounds) else self.max
                low = self.bounds[index - 1] if index > 0 else self.min
                low = self.min if low is None else max(low, self.min or low)
                if bucket_count == 0 or high is None or low is None or high <= low:
                    value = high if high is not None else (self.max or 0.0)
                else:
                    fraction = (rank - (cumulative - bucket_count)) / bucket_count
                    value = low + fraction * (high - low)
                return float(min(max(value, self.min or value), self.max or value))
        return float(self.max or 0.0)

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class SpanNode:
    """One node of the hierarchical phase tree.

    ``seconds`` accumulates across all entries of the same span under the
    same parent, and ``count`` is the number of entries — so the tree stays
    bounded however many times a phase re-runs.
    """

    __slots__ = ("name", "count", "seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self.children: dict[str, "SpanNode"] = {}

    def to_dict(self) -> dict:
        data: dict = {"count": self.count, "seconds": self.seconds}
        if self.children:
            data["children"] = {
                name: child.to_dict() for name, child in self.children.items()
            }
        return data


class Telemetry:
    """One instrumentation session: a span tree plus flat metric registries.

    Not installed anywhere by itself — :func:`enable` / :func:`session` make
    it the module-level active context that :func:`current` hands to
    instrumented code.  All registries are plain dicts keyed by dotted metric
    name; spans nest through a stack, so ``tel.span("route")`` inside
    ``tel.span("cell")`` lands under the cell.
    """

    def __init__(self) -> None:
        self.root = SpanNode("")
        self._stack: list[SpanNode] = [self.root]
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[SpanNode]:
        """Time a named phase; nested calls build the hierarchy."""
        parent = self._stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = SpanNode(name)
        node.count += 1
        self._stack.append(node)
        started = time.perf_counter()
        try:
            yield node
        finally:
            node.seconds += time.perf_counter() - started
            self._stack.pop()

    # -- flat metrics --------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the named counter (creating it on first use)."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        counter.incr(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge (creating it on first use)."""
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        gauge.set(value)

    def histogram(self, name: str, buckets: Sequence[float] = MS_BUCKETS) -> Histogram:
        """Get or create the named histogram (``buckets`` used on creation only)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, buckets)
        return histogram

    def observe(self, name: str, value: float, buckets: Sequence[float] = MS_BUCKETS) -> None:
        """Record one observation into the named histogram."""
        self.histogram(name, buckets).record(value)

    def observe_many(
        self, name: str, values: Iterable[float], buckets: Sequence[float] = MS_BUCKETS
    ) -> None:
        """Record a batch of observations into the named histogram."""
        self.histogram(name, buckets).record_many(values)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable dump of the whole session."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "spans": {
                name: child.to_dict() for name, child in self.root.children.items()
            },
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.to_dict() for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable phase tree + counter/histogram summary."""
        from repro.telemetry.report import render_telemetry

        return render_telemetry(self.to_dict())


# ---------------------------------------------------------------------------
# The module-level active context
# ---------------------------------------------------------------------------

_ACTIVE: Telemetry | None = None


def current() -> Telemetry | None:
    """The active telemetry context, or ``None`` when instrumentation is off.

    This is the only call hot paths make when telemetry is disabled; guard
    every record with ``if tel is not None``.
    """
    return _ACTIVE


def enable(telemetry: Telemetry | None = None) -> Telemetry:
    """Install (and return) the active telemetry context."""
    global _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else Telemetry()
    return _ACTIVE


def disable() -> None:
    """Remove the active telemetry context (instrumentation goes silent)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def session(telemetry: Telemetry | None = None) -> Iterator[Telemetry]:
    """Enable telemetry for a ``with`` block, restoring the previous context.

    Sessions nest: an inner session shadows the outer one for its duration,
    so e.g. a sweep worker can collect per-cell telemetry without polluting
    a benchmark-level session.
    """
    global _ACTIVE
    previous = _ACTIVE
    installed = enable(telemetry)
    try:
        yield installed
    finally:
        _ACTIVE = previous


def spanned(name: str):
    """Decorator: time every call of the function under the named span.

    When no session is active the wrapper is a single ``current()`` call plus
    a truthiness check — cheap enough for chokepoint functions (snapshot
    compiles, network builds), though per-element hot loops should inline the
    guard instead.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tel = current()
            if tel is None:
                return fn(*args, **kwargs)
            with tel.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
