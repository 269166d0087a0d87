"""Parameter-grid sweeps with deterministic seeding and parallel execution.

A :class:`Sweep` expands a grid of dotted-path overrides (the same syntax as
``--set``) into cells, derives an independent seed for every cell from the
master seed via :func:`repro.util.rng.derive_seed`, and executes the cells
either serially or over a :class:`concurrent.futures.ProcessPoolExecutor`.

Because each cell's seed depends only on the master seed, the scenario name,
and the cell's own overrides — never on execution order — a parallel sweep
produces **byte-identical** JSON to the serial sweep with the same master
seed.  :meth:`SweepResult.to_json` therefore excludes wall-clock timings by
default; :meth:`SweepResult.save` keeps the measurements anyway, in a
separate top-level ``timings`` side table (cell key → seconds) outside the
deterministic cell payload, so resumed cells regain their original timing on
:meth:`SweepResult.load` while the cells themselves stay diffable.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.runner import jsonify_value
from repro.scenarios.registry import get_scenario
from repro.scenarios.run import RunResult, run
from repro.scenarios.spec import SpecError, coerce_override
from repro.telemetry.core import (
    SECONDS_BUCKETS,
    current as telemetry_current,
)
from repro.util.rng import derive_seed

__all__ = ["Sweep", "SweepCellResult", "SweepResult"]

SWEEP_SCHEMA = "repro.scenarios.sweep_result/v1"


def _canonical(value: Any) -> str:
    """A stable, process-independent string form of an override value."""
    return json.dumps(jsonify_value(value), sort_keys=True, separators=(",", ":"))


def cell_key(overrides: Mapping[str, Any]) -> str:
    """Canonical identity of one grid cell: sorted ``key=value`` joined by ``|``."""
    return "|".join(f"{key}={_canonical(value)}" for key, value in sorted(overrides.items()))


def _execute_cell(payload: tuple[str, dict, int, bool, float]) -> dict:
    """Worker: run one cell, return the RunResult plus execution metadata.

    Module-level so :class:`ProcessPoolExecutor` can pickle it; returns plain
    dicts (not RunResult objects) so the parent reconstructs every cell the
    same way regardless of serial or parallel execution.  ``submitted_at`` is
    the parent's wall clock at submission, so ``queue_wait_s`` measures how
    long the cell sat before a worker picked it up.
    """
    scenario, overrides, seed, collect_telemetry, submitted_at = payload
    queue_wait = max(0.0, time.time() - submitted_at)
    definition = get_scenario(scenario)
    spec = definition.make_spec(overrides=overrides).with_seed(seed)
    result = run(spec, collect_telemetry=collect_telemetry)
    return {
        "cell": result.to_json_dict(include_timing=True, include_telemetry=True),
        "queue_wait_s": queue_wait,
        "worker": os.getpid(),
    }


@dataclass
class SweepCellResult:
    """One executed grid cell."""

    key: str
    overrides: dict[str, Any]
    seed: int
    result: RunResult

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "key": self.key,
            "overrides": {k: jsonify_value(v) for k, v in sorted(self.overrides.items())},
            "seed": self.seed,
            "result": self.result.to_json_dict(include_timing=include_timing),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "SweepCellResult":
        return cls(
            key=data["key"],
            overrides=dict(data["overrides"]),
            seed=data["seed"],
            result=RunResult.from_json_dict(data["result"]),
        )


@dataclass
class SweepResult:
    """All cells of one sweep, in deterministic grid order."""

    scenario: str
    master_seed: int
    grid: dict[str, list[Any]]
    base: dict[str, Any] = field(default_factory=dict)
    cells: list[SweepCellResult] = field(default_factory=list)

    def cell(self, key: str) -> SweepCellResult | None:
        """Look up a cell by its canonical key."""
        for entry in self.cells:
            if entry.key == key:
                return entry
        return None

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "schema": SWEEP_SCHEMA,
            "scenario": self.scenario,
            "master_seed": self.master_seed,
            "grid": {k: [jsonify_value(v) for v in values] for k, values in sorted(self.grid.items())},
            "base": {k: jsonify_value(v) for k, v in sorted(self.base.items())},
            "cells": [cell.to_json_dict(include_timing=include_timing) for cell in self.cells],
        }

    def to_json(self, indent: int | None = 2, include_timing: bool = False) -> str:
        """Serialise the sweep; deterministic (timing excluded) by default."""
        return json.dumps(
            self.to_json_dict(include_timing=include_timing), indent=indent, sort_keys=True
        )

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        if data.get("schema", SWEEP_SCHEMA) != SWEEP_SCHEMA:
            raise SpecError(f"unsupported SweepResult schema {data.get('schema')!r}")
        result = cls(
            scenario=data["scenario"],
            master_seed=data["master_seed"],
            grid={k: list(v) for k, v in data.get("grid", {}).items()},
            base=dict(data.get("base", {})),
            cells=[SweepCellResult.from_json_dict(cell) for cell in data.get("cells", [])],
        )
        # Restore per-cell wall-clock measurements from the ``timings`` side
        # table :meth:`save` writes — resumed cells keep their original
        # timing instead of losing it to the deterministic serialisation.
        timings = data.get("timings") or {}
        for cell in result.cells:
            if cell.result.seconds is None and cell.key in timings:
                cell.result.seconds = float(timings[cell.key])
        return result

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_json_dict(json.loads(text))

    def save(self, path: str | Path, include_timing: bool = False) -> Path:
        """Write the sweep JSON to ``path``; returns the path.

        The default serialisation keeps the cells deterministic (no inline
        timing), but the measured per-cell seconds are preserved in a
        top-level ``timings`` side table so that :meth:`load` — and therefore
        sweep resume — never loses them.  :meth:`diff` and the in-memory
        :meth:`to_json` ignore the side table.
        """
        path = Path(path)
        data = self.to_json_dict(include_timing=include_timing)
        if not include_timing:
            timings = {
                cell.key: cell.result.seconds
                for cell in self.cells
                if cell.result.seconds is not None
            }
            if timings:
                data["timings"] = timings
        path.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Read a sweep previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def to_text(self) -> str:
        """Render every cell's tables, prefixed by the cell header."""
        blocks = []
        for cell in self.cells:
            header = cell.key or "<base spec>"
            blocks.append(
                f"== cell {header} (seed={cell.seed}, engine={cell.result.engine_used})\n"
                + cell.result.to_text()
            )
        return "\n\n".join(blocks)


class Sweep:
    """Expand a parameter grid over one scenario and execute every cell.

    Parameters
    ----------
    scenario:
        Registered scenario name.
    grid:
        Mapping of dotted override key to the sequence of values to sweep.
        The cartesian product of all axes (axes sorted by key, values in the
        given order) forms the cells; an empty grid is a single-cell sweep.
    base:
        Fixed overrides applied to every cell before the cell's own.
    master_seed:
        Root of per-cell seed derivation: every cell gets
        ``derive_seed(master_seed, "sweep", scenario, cell_key)``.
    """

    def __init__(
        self,
        scenario: str,
        grid: Mapping[str, Sequence[Any]] | None = None,
        base: Mapping[str, Any] | None = None,
        master_seed: int = 0,
    ) -> None:
        defaults = get_scenario(scenario).defaults  # fail fast on unknown names
        self.scenario = scenario
        # Coerce every value against the scenario's default spec up front, so
        # CLI strings and typed Python values produce identical cell keys and
        # therefore identical derived seeds — and unknown keys fail here, not
        # half-way through a grid.
        self.grid = {
            key: [coerce_override(defaults, key, value) for value in values]
            for key, values in sorted((grid or {}).items())
        }
        for key, values in self.grid.items():
            if not values:
                raise SpecError(f"grid axis {key!r} has no values")
        self.base = {
            key: coerce_override(defaults, key, value)
            for key, value in (base or {}).items()
        }
        self.master_seed = master_seed

    def cells(self) -> list[dict[str, Any]]:
        """The per-cell override dicts, in deterministic grid order."""
        axes = list(self.grid.items())
        combos = itertools.product(*(values for _key, values in axes))
        return [
            {**self.base, **{key: value for (key, _values), value in zip(axes, combo)}}
            for combo in combos
        ]

    def cell_seed(self, overrides: Mapping[str, Any]) -> int:
        """Deterministic seed for one cell, independent of execution order."""
        return derive_seed(self.master_seed, "sweep", self.scenario, cell_key(overrides))

    def run(
        self,
        jobs: int = 1,
        resume: SweepResult | None = None,
        progress: Callable[[str], None] | None = None,
        collect_telemetry: bool = False,
    ) -> SweepResult:
        """Execute every cell; ``jobs > 1`` fans out over worker processes.

        ``resume`` reuses matching cells (same scenario, master seed, cell
        key, and seed) from a previously saved sweep instead of re-running
        them.  Serial and parallel execution produce identical results — the
        per-cell seeds depend only on the cell, and cells are assembled in
        grid order either way.

        ``collect_telemetry=True`` makes every executed cell record its own
        telemetry session (attached to the cell's
        :attr:`~repro.scenarios.run.RunResult.telemetry`).  Independently,
        when the *parent* process has an active telemetry session, the sweep
        records per-cell wall clock (``sweep.cell_seconds``), queue wait
        (``sweep.queue_wait_s``), and per-worker cell counts
        (``sweep.worker.<pid>.cells``) into it.
        """
        if resume is not None and (
            resume.scenario != self.scenario or resume.master_seed != self.master_seed
        ):
            raise SpecError(
                "resume sweep does not match: "
                f"scenario {resume.scenario!r} (want {self.scenario!r}), "
                f"master_seed {resume.master_seed} (want {self.master_seed})"
            )

        pending: list[tuple[int, tuple[str, dict, int, bool, float]]] = []
        reused: dict[int, SweepCellResult] = {}
        cell_overrides = self.cells()
        submitted_at = time.time()
        for index, overrides in enumerate(cell_overrides):
            key = cell_key(overrides)
            seed = self.cell_seed(overrides)
            previous = resume.cell(key) if resume is not None else None
            if previous is not None and previous.seed == seed:
                reused[index] = previous
                if progress:
                    progress(f"cell {key or '<base>'}: reused from resume")
            else:
                pending.append(
                    (index, (self.scenario, overrides, seed, collect_telemetry, submitted_at))
                )

        executed: dict[int, dict] = {}
        if pending:
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                    for (index, payload), data in zip(
                        pending, pool.map(_execute_cell, [p for _i, p in pending])
                    ):
                        executed[index] = data
                        if progress:
                            progress(f"cell {cell_key(payload[1]) or '<base>'}: done")
            else:
                for index, payload in pending:
                    executed[index] = _execute_cell(payload)
                    if progress:
                        progress(f"cell {cell_key(payload[1]) or '<base>'}: done")

        tel = telemetry_current()
        if tel is not None:
            for data in executed.values():
                seconds = data["cell"].get("seconds")
                if seconds is not None:
                    tel.observe("sweep.cell_seconds", seconds, buckets=SECONDS_BUCKETS)
                tel.observe(
                    "sweep.queue_wait_s", data["queue_wait_s"], buckets=SECONDS_BUCKETS
                )
                tel.count(f"sweep.worker.{data['worker']}.cells")
            tel.count("sweep.cells_executed", len(executed))
            tel.count("sweep.cells_reused", len(reused))

        cells: list[SweepCellResult] = []
        for index, overrides in enumerate(cell_overrides):
            if index in reused:
                cells.append(reused[index])
            else:
                cells.append(
                    SweepCellResult(
                        key=cell_key(overrides),
                        overrides=dict(overrides),
                        seed=self.cell_seed(overrides),
                        result=RunResult.from_json_dict(executed[index]["cell"]),
                    )
                )
        return SweepResult(
            scenario=self.scenario,
            master_seed=self.master_seed,
            grid=self.grid,
            base=self.base,
            cells=cells,
        )
