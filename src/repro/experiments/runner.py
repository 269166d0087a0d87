"""Shared infrastructure for the experiment harness.

Experiments produce :class:`ExperimentTable` objects — a header plus rows of
values — which can be printed as aligned text tables (the library has no
plotting dependency; the "figures" are reproduced as the numeric series the
paper plots).

The routing experiments take their engine from ``spec.engine`` and route
through :class:`repro.scenarios.rounds.EngineSession`, the one place that
arbitrates between the object and fastpath engines;
:func:`measure_mean_hops` is the statistic they all report.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.simulation.workload import LookupWorkload

__all__ = [
    "ExperimentTable",
    "format_table",
    "jsonify_value",
    "lookup_pairs",
    "measure_mean_hops",
    "tables_to_csv",
]


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


def lookup_pairs(session, seed: int, count: int) -> list[tuple[int, int]] | None:
    """Draw ``count`` lookup pairs among the session's live nodes.

    The pairs are ``LookupWorkload(seed).pairs(session.live_labels(), count)``.
    A legal failure level can leave fewer than two nodes alive; then there is
    no pair to draw, the result is ``None``, and :func:`measure_mean_hops`
    counts every lookup of that level as failed.
    """
    live = session.live_labels()
    if len(live) < 2:
        return None
    return LookupWorkload(seed=seed).pairs(live, count)


def measure_mean_hops(session, pairs) -> tuple[float, float]:
    """Route ``pairs`` through an open :class:`~repro.scenarios.rounds.EngineSession`.

    Returns (mean hops of successful searches, failed fraction) — identical
    on both engines at the same route seed.  ``pairs`` of ``None`` (see
    :func:`lookup_pairs`) routes nothing and reports ``(0.0, 1.0)``, the row of
    a level at which no lookup succeeds.
    """
    if pairs is None:
        return 0.0, 1.0
    success, hops = session.route(pairs)
    delivered = hops[success]
    mean_hops = float(delivered.mean()) if delivered.size else 0.0
    return mean_hops, int((~success).sum()) / len(pairs)
