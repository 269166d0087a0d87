"""Shared infrastructure for the experiment harness.

Experiments produce :class:`ExperimentTable` objects — a header plus rows of
values — which can be printed as aligned text tables (the library has no
plotting dependency; the "figures" are reproduced as the numeric series the
paper plots).

The harness also owns the **engine switch**: every routing experiment accepts
``engine="object"`` (the scalar :class:`~repro.core.routing.GreedyRouter`,
one Python hop at a time) or ``engine="fastpath"`` (the batched NumPy engine
of :mod:`repro.fastpath`).  :func:`route_pairs_with_engine` is the single
place that arbitrates between them: fastpath covers both routing modes and
all three Section-6 recovery strategies, hop-for-hop identical to the object
engine at the same seed.  The rare configurations still outside the fastpath
envelope (a graph in a metric space the snapshot compiler cannot handle)
fall back to the object engine so sweeps keep working, but the downgrade is
not silent — the returned :class:`EngineRouteResult` records the engine
actually used and a :class:`FastpathFallbackWarning` is emitted.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

from repro.core.routing import GreedyRouter, RecoveryStrategy, RoutingMode

__all__ = [
    "ExperimentTable",
    "EngineRouteResult",
    "FastpathFallbackWarning",
    "format_table",
    "jsonify_value",
    "tables_to_csv",
    "route_sample",
    "route_pairs_with_engine",
]


class FastpathFallbackWarning(RuntimeWarning):
    """Emitted when a requested ``engine="fastpath"`` run is downgraded.

    The fastpath engine implements all three recovery strategies, so the
    remaining downgrade triggers are structural: a graph whose metric space
    the snapshot compiler does not support, or a recovery configuration the
    batch router rejects (e.g. a multi-detour re-route budget).  The fallback
    still happens (sweeps must not fail half-way), but it is observable: this
    warning fires and :class:`EngineRouteResult.engine_used` reports
    ``"object"``.  Experiments that pre-resolve their engine (e.g. the
    ``"figure7"`` scenario) do so once up front, so the warning is emitted at
    most once per experiment rather than once per sweep cell.
    """


def jsonify_value(value: Any) -> Any:
    """Convert ``value`` to a JSON-serialisable equivalent.

    NumPy scalars and arrays are converted to native Python numbers/lists so
    result tables built from array computations serialise cleanly; anything
    already JSON-native passes through, everything else falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        # NumPy zero-dimensional scalar (np.int64, np.float64, ...).
        return jsonify_value(value.item())
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonify_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonify_value(item) for key, item in value.items()}
    return str(value)


@dataclass
class ExperimentTable:
    """A rectangular result table with a title and column names."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: Any) -> None:
        """Append a row; the number of values must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        """Return all values of the named column."""
        try:
            index = self.columns.index(name)
        except ValueError as error:
            raise KeyError(f"no column named {name!r}") from error
        return [row[index] for row in self.rows]

    def to_text(self) -> str:
        """Render the table as aligned monospace text."""
        return format_table(self.title, self.columns, self.rows, notes=self.notes)

    def to_csv(self) -> str:
        """Render the table as RFC-4180 CSV (header row + data rows).

        The title and notes are metadata, not data, and are omitted; use
        :meth:`to_json` when the full record is needed.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([jsonify_value(value) for value in row])
        return buffer.getvalue()

    def to_json_dict(self) -> dict:
        """Return the table as a JSON-serialisable dict."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [[jsonify_value(value) for value in row] for row in self.rows],
            "notes": self.notes,
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the table to a JSON string (deterministic key order)."""
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentTable":
        """Rebuild a table from :meth:`to_json_dict` output."""
        table = cls(
            title=data["title"],
            columns=list(data["columns"]),
            notes=data.get("notes", ""),
        )
        for row in data["rows"]:
            table.add_row(*row)
        return table

    @classmethod
    def from_json(cls, text: str) -> "ExperimentTable":
        """Rebuild a table from a :meth:`to_json` string."""
        return cls.from_json_dict(json.loads(text))

    def __str__(self) -> str:
        return self.to_text()


def tables_to_csv(tables: Sequence["ExperimentTable"]) -> str:
    """Render tables as CSV; multiple tables become ``#``-titled blocks."""
    blocks = []
    for table in tables:
        prefix = f"# {table.title}\n" if len(tables) > 1 else ""
        blocks.append(prefix + table.to_csv())
    return "\n".join(blocks)


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    notes: str = "",
) -> str:
    """Render a title, header, and rows as an aligned text table."""
    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    rendered_rows = [[render(value) for value in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = [title, "-" * max(len(title), 8)]
    lines.append(format_row(list(columns)))
    lines.append(format_row(["-" * width for width in widths]))
    for row in rendered_rows:
        lines.append(format_row(row))
    if notes:
        lines.append("")
        lines.append(notes)
    return "\n".join(lines)


def route_sample(graph, router, pairs) -> tuple[int, list[int]]:
    """Route every (source, target) pair; return (failures, hops_of_successes)."""
    failures = 0
    hops: list[int] = []
    for source, target in pairs:
        result = router.route(source, target)
        if result.success:
            hops.append(result.hops)
        else:
            failures += 1
    return failures, hops


class EngineRouteResult(NamedTuple):
    """Outcome of :func:`route_pairs_with_engine`.

    ``failures`` and ``hops`` match the old ``(failures, hops)`` tuple;
    ``engine_used`` records which engine actually routed the pairs — it can
    differ from the requested engine when a fastpath request is downgraded
    because the recovery strategy is unsupported.
    """

    failures: int
    hops: list[int]
    engine_used: str


def route_pairs_with_engine(
    graph,
    pairs,
    engine: str = "object",
    mode: RoutingMode = RoutingMode.TWO_SIDED,
    recovery: RecoveryStrategy = RecoveryStrategy.TERMINATE,
    strict_best_neighbor: bool = False,
    seed: int = 0,
    snapshot=None,
) -> EngineRouteResult:
    """Route every pair through the requested engine.

    Returns an :class:`EngineRouteResult` ``(failures, hops_of_successes,
    engine_used)`` regardless of engine, so experiment code is
    engine-agnostic.  The two engines are hop-for-hop identical at the same
    seed for every configuration they both support, including all three
    recovery strategies.

    Parameters
    ----------
    graph:
        The overlay graph (with any failures already applied).  May be
        ``None`` for a pure-fastpath run when ``snapshot`` is given — e.g. a
        direct-built network (:func:`repro.fastpath.build_snapshot`) that
        never had an object graph.
    pairs:
        Sequence of (source, target) label pairs.
    engine:
        ``"object"`` or ``"fastpath"``.  A fastpath request whose graph
        cannot be compiled into a snapshot falls back to the object engine;
        the downgrade emits a :class:`FastpathFallbackWarning` and is
        recorded in the returned ``engine_used`` field.
    seed:
        Routing seed (the random re-route stream); both engines derive the
        same stream from it.
    snapshot:
        Optional precompiled :class:`~repro.fastpath.FastpathSnapshot` of
        the topology — pass it when several strategies share one topology so
        the graph is compiled once, not per strategy.  Ignored by the object
        engine.  The caller is responsible for the snapshot actually matching
        ``graph``'s current liveness.
    """
    from repro.fastpath import BatchGreedyRouter, compile_snapshot, select_engine

    resolved = select_engine(engine, recovery)
    if graph is None and snapshot is None:
        raise ValueError(
            "route_pairs_with_engine needs a graph or (for fastpath runs) a "
            "precompiled snapshot; got neither"
        )
    if resolved == "fastpath" and snapshot is None:
        try:
            snapshot = compile_snapshot(graph)
        except NotImplementedError as error:
            warnings.warn(
                f"engine='fastpath' cannot compile this graph ({error}); "
                "routing through the object engine instead",
                FastpathFallbackWarning,
                stacklevel=2,
            )
            resolved = "object"
    if resolved == "fastpath":
        reroute_pool = None
        if recovery is RecoveryStrategy.RANDOM_REROUTE and graph is not None:
            # Detour draws index the scalar router's live-node list; hand the
            # batch router the graph's own ordering so parity holds even for
            # graphs whose nodes were not inserted in sorted label order.
            reroute_pool = graph.labels(only_alive=True)
        router = BatchGreedyRouter(
            snapshot=snapshot,
            mode=mode,
            recovery=recovery,
            strict_best_neighbor=strict_best_neighbor,
            seed=seed,
            reroute_pool=reroute_pool,
        )
        result = router.route_pairs(pairs)
        return EngineRouteResult(
            result.failed_count(), result.hops[result.success].tolist(), resolved
        )

    if graph is None:
        raise ValueError(
            "the object engine needs an overlay graph; only snapshot-backed "
            "fastpath runs may pass graph=None"
        )
    router = GreedyRouter(
        graph=graph,
        mode=mode,
        recovery=recovery,
        strict_best_neighbor=strict_best_neighbor,
        seed=seed,
    )
    failures, hops = route_sample(graph, router, pairs)
    return EngineRouteResult(failures, hops, resolved)
