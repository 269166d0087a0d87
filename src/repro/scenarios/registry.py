"""The scenario registry.

A *scenario* is a named, registered recipe that turns a
:class:`~repro.scenarios.spec.ScenarioSpec` into result tables.  The registry
maps names to :class:`ScenarioDefinition` objects so the single
:func:`repro.scenarios.run` entrypoint, the ``repro run`` / ``repro sweep``
CLI, and the parallel sweep workers all resolve scenarios the same way.

Registering a scenario takes a default spec plus an execute function::

    @register_scenario(
        "my-scenario",
        description="what it measures",
        defaults=ScenarioSpec(scenario="my-scenario", ...),
    )
    def _execute(spec: ScenarioSpec) -> ScenarioOutcome | ExperimentTable:
        ...

The execute function may return a :class:`~repro.scenarios.run.ScenarioOutcome`
(tables + raw result + the engine actually used) or, for simple scenarios,
one :class:`~repro.experiments.runner.ExperimentTable` or a list of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.scenarios.spec import ScenarioSpec, SpecError, apply_overrides

__all__ = [
    "ScenarioDefinition",
    "DuplicateScenarioError",
    "UnknownScenarioError",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "available_scenarios",
]


class DuplicateScenarioError(ValueError):
    """Raised when two scenarios are registered under the same name."""


class UnknownScenarioError(KeyError):
    """Raised when a scenario name is not in the registry."""


@dataclass(frozen=True)
class ScenarioDefinition:
    """A registered scenario: name, description, default spec, execute hook."""

    name: str
    description: str
    defaults: ScenarioSpec
    execute: Callable[[ScenarioSpec], Any]

    def make_spec(
        self, overrides: Mapping[str, Any] | None = None, seed: int | None = None
    ) -> ScenarioSpec:
        """Build a spec from the defaults plus optional overrides and seed."""
        spec = self.defaults
        if seed is not None:
            spec = spec.with_seed(seed)
        if overrides:
            spec = apply_overrides(spec, overrides)
        return spec


_REGISTRY: dict[str, ScenarioDefinition] = {}
_BUILTIN_LOADED = False


def _ensure_builtin_scenarios() -> None:
    """Import the built-in scenario modules exactly once.

    Lazy because they import :mod:`repro.scenarios.run` (for
    :class:`~repro.scenarios.run.ScenarioOutcome`), which is itself still
    importing when this package is first loaded.
    """
    global _BUILTIN_LOADED
    if not _BUILTIN_LOADED:
        _BUILTIN_LOADED = True
        import repro.experiments.ablations  # noqa: F401  (registers on import)
        import repro.experiments.baseline_comparison  # noqa: F401  (registers on import)
        import repro.experiments.figure5  # noqa: F401  (registers on import)
        import repro.experiments.figure6  # noqa: F401  (registers on import)
        import repro.experiments.figure7  # noqa: F401  (registers on import)
        import repro.experiments.table1  # noqa: F401  (registers on import)
        import repro.scenarios.churn  # noqa: F401  (registers on import)
        import repro.scenarios.degradation  # noqa: F401  (registers on import)
        import repro.scenarios.service  # noqa: F401  (registers on import)


def register_scenario(
    name: str, *, description: str = "", defaults: ScenarioSpec
) -> Callable[[Callable[[ScenarioSpec], Any]], Callable[[ScenarioSpec], Any]]:
    """Decorator registering ``name`` with its default spec and execute hook.

    Raises
    ------
    DuplicateScenarioError
        If ``name`` is already registered.
    SpecError
        If ``defaults.scenario`` does not match ``name``.
    """
    if defaults.scenario != name:
        raise SpecError(
            f"defaults.scenario is {defaults.scenario!r} but the scenario is "
            f"registered as {name!r}"
        )

    def decorator(execute: Callable[[ScenarioSpec], Any]):
        if name in _REGISTRY:
            raise DuplicateScenarioError(f"scenario {name!r} is already registered")
        doc_lines = (execute.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = ScenarioDefinition(
            name=name,
            description=description or (doc_lines[0] if doc_lines else ""),
            defaults=defaults,
            execute=execute,
        )
        return execute

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent); for tests/plugins."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioDefinition:
    """Look up a registered scenario by name.

    Raises
    ------
    UnknownScenarioError
        Listing the registered names, so typos are self-diagnosing.
    """
    _ensure_builtin_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def available_scenarios() -> list[ScenarioDefinition]:
    """All registered scenarios, sorted by name."""
    _ensure_builtin_scenarios()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
