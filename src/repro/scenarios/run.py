"""The single ``run(spec) -> RunResult`` entrypoint.

Every experiment in the repository — each figure, the Table-1 sweep, every
ablation, the baseline comparison, and any user-defined scenario — executes
through this one function.  The returned :class:`RunResult` is a structured,
JSON-round-trippable record: it echoes the spec, reports the engine actually
used (which can differ from the requested one when a fastpath request is
downgraded), carries the result :class:`~repro.experiments.runner.ExperimentTable`
objects, and includes wall-clock timing.  Sweeps persist these records so
runs can be saved, diffed, and resumed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.experiments.runner import ExperimentTable
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, SpecError
from repro.telemetry.core import session as telemetry_session

__all__ = ["ScenarioOutcome", "RunResult", "run"]

RUN_RESULT_SCHEMA = "repro.scenarios.run_result/v1"


@dataclass
class ScenarioOutcome:
    """What a scenario's execute hook hands back to :func:`run`.

    ``raw`` is the scenario's native result object (e.g. a
    :class:`~repro.experiments.figure6.Figure6Result`) for in-process callers;
    it is not serialised.  ``engine_used`` reports the engine that actually
    routed queries (``None`` means "as requested").
    """

    tables: list[ExperimentTable]
    raw: Any = None
    engine_used: str | None = None


@dataclass
class RunResult:
    """Structured record of one scenario run.

    JSON round-trip: ``RunResult.from_json(result.to_json())`` reconstructs
    everything except ``raw`` (the in-process result object) — by design, so
    saved sweeps are self-contained data.
    """

    scenario: str
    spec: ScenarioSpec
    engine_requested: str
    engine_used: str
    tables: list[ExperimentTable]
    #: Wall-clock duration; ``None`` when the record was deserialised from
    #: JSON saved without timing.  Resumed sweep cells regain their original
    #: measurement through the sweep file's ``timings`` side table (see
    #: :meth:`repro.scenarios.sweep.SweepResult.save`).
    seconds: float | None = 0.0
    #: Telemetry dump (:meth:`repro.telemetry.Telemetry.to_dict`) when the
    #: run was executed with ``collect_telemetry=True``; excluded from the
    #: deterministic JSON by default, same pattern as ``include_timing``.
    telemetry: dict | None = None
    raw: Any = field(default=None, repr=False, compare=False)

    def to_text(self) -> str:
        """Render every result table as aligned text."""
        return "\n\n".join(table.to_text() for table in self.tables)

    def to_csv(self) -> str:
        """Render the result tables as CSV blocks (titles as ``#`` comments)."""
        from repro.experiments.runner import tables_to_csv

        return tables_to_csv(self.tables)

    def to_json_dict(
        self, include_timing: bool = True, include_telemetry: bool = False
    ) -> dict:
        """Return a JSON-serialisable dict.

        ``include_timing=False`` drops the wall-clock field so two runs of
        the same spec serialise byte-identically (used by sweep determinism
        checks and resume).  ``include_telemetry`` opts the (equally
        nondeterministic) telemetry dump in; it is excluded by default for
        the same reason.
        """
        data = {
            "schema": RUN_RESULT_SCHEMA,
            "scenario": self.scenario,
            "spec": self.spec.to_json_dict(),
            "engine_requested": self.engine_requested,
            "engine_used": self.engine_used,
            "tables": [table.to_json_dict() for table in self.tables],
        }
        if include_timing and self.seconds is not None:
            data["seconds"] = self.seconds
        if include_telemetry and self.telemetry is not None:
            data["telemetry"] = self.telemetry
        return data

    def to_json(
        self,
        indent: int | None = 2,
        include_timing: bool = True,
        include_telemetry: bool = False,
    ) -> str:
        """Serialise to a JSON string with deterministic key order."""
        return json.dumps(
            self.to_json_dict(
                include_timing=include_timing, include_telemetry=include_telemetry
            ),
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_json_dict` output (``raw`` is lost)."""
        schema = data.get("schema", RUN_RESULT_SCHEMA)
        if schema != RUN_RESULT_SCHEMA:
            raise SpecError(f"unsupported RunResult schema {schema!r}")
        return cls(
            scenario=data["scenario"],
            spec=ScenarioSpec.from_json_dict(data["spec"]),
            engine_requested=data["engine_requested"],
            engine_used=data["engine_used"],
            tables=[ExperimentTable.from_json_dict(entry) for entry in data["tables"]],
            seconds=data.get("seconds"),
            telemetry=data.get("telemetry"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Rebuild a result from a :meth:`to_json` string."""
        return cls.from_json_dict(json.loads(text))


def _normalise_outcome(outcome: Any) -> ScenarioOutcome:
    """Accept the convenience return shapes the registry documents."""
    if isinstance(outcome, ScenarioOutcome):
        return outcome
    if isinstance(outcome, ExperimentTable):
        return ScenarioOutcome(tables=[outcome])
    if isinstance(outcome, (list, tuple)) and all(
        isinstance(item, ExperimentTable) for item in outcome
    ):
        return ScenarioOutcome(tables=list(outcome))
    raise SpecError(
        "a scenario must return a ScenarioOutcome, an ExperimentTable, or a "
        f"list of ExperimentTables, got {type(outcome).__name__}"
    )


def run(spec: ScenarioSpec, collect_telemetry: bool = False) -> RunResult:
    """Execute the scenario described by ``spec`` and return its result.

    The spec is validated (it validates itself on construction, but a spec
    deserialised from edited JSON is re-checked here), the scenario is looked
    up in the registry, executed, and timed.

    ``collect_telemetry=True`` executes the scenario inside its own
    :func:`repro.telemetry.session` and attaches the resulting dump to
    :attr:`RunResult.telemetry`; results are bit-identical either way (the
    instrumentation only observes).  When a session is already active and
    ``collect_telemetry`` is off, the scenario's spans and counters land in
    that outer session — which is how ``bench/run.py`` aggregates.
    """
    spec.validate()
    definition = get_scenario(spec.scenario)
    started = time.perf_counter()
    if collect_telemetry:
        with telemetry_session() as tel:
            outcome = _normalise_outcome(definition.execute(spec))
        telemetry_dump = tel.to_dict()
    else:
        outcome = _normalise_outcome(definition.execute(spec))
        telemetry_dump = None
    seconds = time.perf_counter() - started
    return RunResult(
        scenario=spec.scenario,
        spec=spec,
        engine_requested=spec.engine,
        engine_used=outcome.engine_used or spec.engine,
        tables=outcome.tables,
        seconds=seconds,
        telemetry=telemetry_dump,
        raw=outcome.raw,
    )
