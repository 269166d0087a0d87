"""repro.scenarios — the unified, declarative experiment API.

Every result in the paper (Figures 5–7, Table 1, the ablations, the baseline
comparison) is one shape of computation: build an overlay, inject failures,
route a query sample, aggregate statistics.  This package encodes that shape
as data instead of per-figure functions:

* :mod:`repro.scenarios.spec` — frozen, validated, JSON-round-trippable
  :class:`ScenarioSpec` dataclasses (topology, failure model, routing and
  recovery, workload, engine choice, seed) with dotted-path overrides;
* :mod:`repro.scenarios.registry` — the ``@register_scenario`` registry
  mapping names to default specs and execute hooks;
* :mod:`repro.scenarios.run` — the single :func:`run(spec) -> RunResult
  <run>` entrypoint, with :class:`RunResult` as the structured record (spec
  echo, engine actually used, result tables, timing);
* :mod:`repro.scenarios.sweep` — the :class:`Sweep` executor: expand a
  parameter grid, derive a deterministic per-cell seed from the master seed
  (:mod:`repro.util.rng`), and fan cells out over a process pool — parallel
  sweeps are byte-identical to serial ones;
* :mod:`repro.experiments` — the paper's experiments, each module's
  measurement function registered as a scenario (``repro list`` shows them);
* :mod:`repro.scenarios.rounds` — the engine session every routing scenario
  goes through (the one object/fastpath seam) and the churn/repair/lookup
  burst loop behind the ``churn``, ``maintenance-cost``, ``service`` and
  ``degradation`` scenarios.

Quickstart — run a registered scenario::

    >>> from repro.scenarios import get_scenario, run
    >>> spec = get_scenario("figure7").make_spec(
    ...     overrides={"topology.nodes": 256, "workload.searches": 50,
    ...                "workload.iterations": 1, "engine": "fastpath"})
    >>> result = run(spec)
    >>> result.engine_used
    'fastpath'

and sweep a grid in parallel::

    >>> from repro.scenarios import Sweep
    >>> sweep = Sweep("figure7",
    ...               grid={"engine": ["object", "fastpath"],
    ...                     "topology.nodes": [128, 256]},
    ...               base={"workload.searches": 20, "workload.iterations": 1},
    ...               master_seed=7)
    >>> len(sweep.run(jobs=4).cells)
    4

Defining a new scenario takes ~20 lines; see the README's "Define your own
scenario" example or any experiment module, e.g.
:mod:`repro.experiments.figure7`.
"""

from __future__ import annotations

from repro.scenarios.registry import (
    DuplicateScenarioError,
    ScenarioDefinition,
    UnknownScenarioError,
    available_scenarios,
    get_scenario,
    register_scenario,
    unregister_scenario,
)
from repro.scenarios.run import RunResult, ScenarioOutcome, run
from repro.scenarios.spec import (
    FailureSpec,
    RoutingSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    apply_overrides,
    coerce_override,
    parse_assignment,
    parse_scalar,
)
from repro.scenarios.sweep import Sweep, SweepCellResult, SweepResult

__all__ = [
    "ScenarioSpec",
    "TopologySpec",
    "FailureSpec",
    "RoutingSpec",
    "WorkloadSpec",
    "SpecError",
    "apply_overrides",
    "coerce_override",
    "parse_assignment",
    "parse_scalar",
    "ScenarioDefinition",
    "DuplicateScenarioError",
    "UnknownScenarioError",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "available_scenarios",
    "ScenarioOutcome",
    "RunResult",
    "run",
    "Sweep",
    "SweepCellResult",
    "SweepResult",
]
