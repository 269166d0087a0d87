"""Declarative experiment specifications.

A :class:`ScenarioSpec` is a frozen, validated, JSON-round-trippable
description of one experiment run: what topology to build, which failures to
inject, how to route and recover, what query workload to apply, which engine
to evaluate on, and the seed everything derives from.  Encoding the
experiment in *data* rather than in per-figure function signatures is what
lets one ``run(spec)`` entrypoint serve every scenario and lets a sweep
expand a parameter grid mechanically.

The spec is deliberately a closed, flat vocabulary — common knobs live in the
typed sub-specs (:class:`TopologySpec`, :class:`FailureSpec`,
:class:`RoutingSpec`, :class:`WorkloadSpec`), and the handful of knobs only
one scenario understands (Table 1's size lists, the ablation sweep axes)
live in the ``extras`` mapping.  Overrides address fields by dotted path
(``"topology.nodes"``, ``"routing.recovery"``, ``"extras.sizes"``), which is
the same syntax the CLI exposes as ``--set key=value`` and ``--grid
key=v1,v2``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.failures import ByzantineBehavior
from repro.core.routing import RecoveryStrategy, RoutingMode
from repro.fastpath import ENGINES
from repro.overlay import PROTOCOLS

__all__ = [
    "SpecError",
    "TopologySpec",
    "FailureSpec",
    "RoutingSpec",
    "WorkloadSpec",
    "ScenarioSpec",
    "apply_overrides",
    "coerce_override",
    "parse_assignment",
    "parse_scalar",
]


class SpecError(ValueError):
    """Raised when a scenario specification (or an override) is invalid."""


TOPOLOGY_KINDS = ("ideal", "heuristic", "deterministic")
FAILURE_KINDS = ("none", "nodes", "links", "byzantine", "churn")
BYZANTINE_BEHAVIORS = (
    ByzantineBehavior.DROP,
    ByzantineBehavior.MISROUTE,
    ByzantineBehavior.RANDOM,
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


@dataclass(frozen=True)
class TopologySpec:
    """How the overlay graph is built.

    ``kind`` selects the builder: ``"ideal"`` samples every long link
    straight from the inverse power-law distribution, ``"heuristic"`` runs
    the Section-5 incremental construction, ``"deterministic"`` builds the
    base-``base`` scheme (``variant`` as in
    :class:`~repro.core.builder.DeterministicGraphBuilder`).

    ``protocol`` selects an overlay protocol family for scenarios that can
    compare several (the ``baselines`` comparison): one of
    :data:`repro.overlay.PROTOCOLS`, or ``""`` (the default) for the
    scenario's own choice — every protocol at once for ``baselines``.
    """

    kind: str = "ideal"
    nodes: int = 1 << 11
    links_per_node: int | None = None
    exponent: float = 1.0
    base: int = 2
    variant: str = "full"
    protocol: str = ""

    def validate(self) -> None:
        _require(self.kind in TOPOLOGY_KINDS, f"topology.kind must be one of {TOPOLOGY_KINDS}, got {self.kind!r}")
        _require(isinstance(self.nodes, int) and self.nodes >= 2, f"topology.nodes must be an integer >= 2, got {self.nodes!r}")
        _require(
            self.links_per_node is None or (isinstance(self.links_per_node, int) and self.links_per_node >= 1),
            f"topology.links_per_node must be None or an integer >= 1, got {self.links_per_node!r}",
        )
        _require(self.exponent >= 0.0, f"topology.exponent must be >= 0, got {self.exponent!r}")
        _require(isinstance(self.base, int) and self.base >= 2, f"topology.base must be an integer >= 2, got {self.base!r}")
        _require(
            self.protocol in ("",) + PROTOCOLS,
            f"topology.protocol must be '' or one of {PROTOCOLS}, got {self.protocol!r}",
        )


@dataclass(frozen=True)
class FailureSpec:
    """Which failures are injected before routing.

    ``levels`` is the sweep axis: node-failure fractions, link survival
    probabilities, Byzantine fractions, or — for ``kind="churn"`` — per-round
    churn rates (events per round as a fraction of the membership) depending
    on ``kind``.  The paper experiments register their default sweep here;
    the round-based scenarios read an empty tuple as their own default level.
    """

    kind: str = "nodes"
    levels: tuple[float, ...] = ()
    behavior: str = ByzantineBehavior.DROP

    def validate(self) -> None:
        _require(self.kind in FAILURE_KINDS, f"failures.kind must be one of {FAILURE_KINDS}, got {self.kind!r}")
        for level in self.levels:
            _require(0.0 <= float(level) <= 1.0, f"failures.levels entries must be in [0, 1], got {level!r}")
        _require(
            self.behavior in BYZANTINE_BEHAVIORS,
            f"failures.behavior must be one of {BYZANTINE_BEHAVIORS}, got {self.behavior!r}",
        )


@dataclass(frozen=True)
class RoutingSpec:
    """Greedy-routing and failure-recovery configuration.

    Only ``recovery`` is read by the registered scenarios (``ablation-backtrack``
    and ``byzantine`` refuse any value but their own).  The other three
    fields are echoed in the spec JSON at their defaults (result digests
    hash the echo) and rejected at any other value rather than silently
    ignored.
    """

    mode: str = RoutingMode.TWO_SIDED.value
    recovery: str = RecoveryStrategy.BACKTRACK.value
    strict_best_neighbor: bool = False
    backtrack_depth: int = 5

    def validate(self) -> None:
        recoveries = tuple(strategy.value for strategy in RecoveryStrategy)
        _require(self.recovery in recoveries, f"routing.recovery must be one of {recoveries}, got {self.recovery!r}")
        for field in dataclasses.fields(self):
            if field.name == "recovery":
                continue
            value = getattr(self, field.name)
            hint = (
                "sweep the backtracking history with `ablation-backtrack` (`extras.depths`)"
                if field.name == "backtrack_depth"
                else "construct `GreedyRouter` / `BatchGreedyRouter` directly"
            )
            _require(
                value == field.default and type(value) is type(field.default),
                f"routing.{field.name} must stay {field.default!r}, got {value!r}: no registered "
                f"scenario reads it; {hint}",
            )

    def recovery_strategy(self) -> RecoveryStrategy:
        """The recovery field as its enum."""
        return RecoveryStrategy(self.recovery)


@dataclass(frozen=True)
class WorkloadSpec:
    """Query workload and repetition counts.

    ``searches`` is the number of routed (source, target) lookups per
    measurement point; ``networks`` is the number of independently built
    networks averaged by construction experiments; ``iterations`` is the
    number of build/measure repetitions averaged by routing experiments.
    """

    searches: int = 200
    networks: int = 1
    iterations: int = 1

    def validate(self) -> None:
        _require(isinstance(self.searches, int) and self.searches >= 1, f"workload.searches must be an integer >= 1, got {self.searches!r}")
        _require(isinstance(self.networks, int) and self.networks >= 1, f"workload.networks must be an integer >= 1, got {self.networks!r}")
        _require(isinstance(self.iterations, int) and self.iterations >= 1, f"workload.iterations must be an integer >= 1, got {self.iterations!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete declarative description of one experiment run.

    Instances are immutable; derive variants with :func:`apply_overrides` or
    :meth:`with_overrides`, and serialise with :meth:`to_json_dict` /
    :meth:`from_json_dict`.  ``extras`` holds scenario-specific parameters as
    a sorted tuple of ``(key, value)`` pairs so the spec stays hashable; use
    :meth:`extra` / :meth:`extras_dict` to read it.
    """

    scenario: str
    topology: TopologySpec = TopologySpec()
    failures: FailureSpec = FailureSpec()
    routing: RoutingSpec = RoutingSpec()
    workload: WorkloadSpec = WorkloadSpec()
    engine: str = "object"
    seed: int = 0
    extras: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.extras, Mapping):
            object.__setattr__(
                self, "extras", tuple(sorted((str(k), _freeze(v)) for k, v in self.extras.items()))
            )
        else:
            object.__setattr__(
                self, "extras", tuple(sorted((str(k), _freeze(v)) for k, v in self.extras))
            )
        self.validate()

    def validate(self) -> None:
        """Check every field; raise :class:`SpecError` on the first problem."""
        _require(bool(self.scenario) and isinstance(self.scenario, str), f"scenario must be a non-empty string, got {self.scenario!r}")
        _require(self.engine in ENGINES, f"engine must be one of {ENGINES}, got {self.engine!r}")
        _require(isinstance(self.seed, int) and self.seed >= 0, f"seed must be a non-negative integer, got {self.seed!r}")
        self.topology.validate()
        self.failures.validate()
        self.routing.validate()
        self.workload.validate()

    # -- extras access -------------------------------------------------------

    def extras_dict(self) -> dict[str, Any]:
        """The extras pairs as a plain dict."""
        return dict(self.extras)

    def extra(self, key: str, default: Any = None) -> Any:
        """Read one extras entry."""
        return self.extras_dict().get(key, default)

    # -- derivation ----------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """Return a copy with dotted-path overrides applied."""
        return apply_overrides(self, overrides)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """Return a copy with a different seed."""
        return dataclasses.replace(self, seed=seed)

    # -- serialisation -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Return a JSON-serialisable dict (inverse of :meth:`from_json_dict`)."""
        from repro.experiments.runner import jsonify_value

        return {
            "scenario": self.scenario,
            "topology": dataclasses.asdict(self.topology),
            "failures": {
                "kind": self.failures.kind,
                "levels": list(self.failures.levels),
                "behavior": self.failures.behavior,
            },
            "routing": dataclasses.asdict(self.routing),
            "workload": dataclasses.asdict(self.workload),
            "engine": self.engine,
            "seed": self.seed,
            "extras": {key: jsonify_value(value) for key, value in self.extras},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json_dict` output."""
        failures = dict(data.get("failures", {}))
        if "levels" in failures:
            failures["levels"] = tuple(failures["levels"])
        return cls(
            scenario=data["scenario"],
            topology=TopologySpec(**data.get("topology", {})),
            failures=FailureSpec(**failures),
            routing=RoutingSpec(**data.get("routing", {})),
            workload=WorkloadSpec(**data.get("workload", {})),
            engine=data.get("engine", "object"),
            seed=data.get("seed", 0),
            extras=data.get("extras", {}),
        )


def _freeze(value: Any) -> Any:
    """Make an extras value hashable/immutable (lists become tuples)."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Dotted-path overrides and CLI value parsing
# ---------------------------------------------------------------------------

_SUB_SPECS = ("topology", "failures", "routing", "workload")
_TOP_FIELDS = ("engine", "seed")

#: Fields no registered scenario reads, mapped to where the axis really
#: lives.  Each scenario's own value stays in the echoed spec (result digests
#: hash the echo); an override would be echoed and ignored, so it is refused.
_UNREAD_FIELDS = {
    "topology.kind": "every scenario builds the topology its name says "
    "(`figure7` compares heuristic and ideal; `table1` builds each model)",
    "topology.exponent": "sweep the link exponent with `ablation-exponent` "
    "(`extras.exponents`)",
    "topology.base": "`table1` sweeps the deterministic bases (`extras.bases`)",
    "topology.variant": "`table1` builds both deterministic variants itself",
    "failures.kind": "the failure model is the scenario's own (`figure6` nodes, "
    "`table1` links, `byzantine`, `churn`, `degradation` schedules)",
}


def parse_scalar(text: str) -> Any:
    """Parse one CLI value: int, float, bool, None, or the raw string."""
    lowered = text.strip().lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text.strip()


def parse_assignment(text: str) -> tuple[str, str]:
    """Split a ``key=value`` CLI token; raise :class:`SpecError` if malformed."""
    key, separator, value = text.partition("=")
    if not separator or not key.strip():
        raise SpecError(f"expected KEY=VALUE, got {text!r}")
    return key.strip(), value


def _coerce(raw: Any, template: Any) -> Any:
    """Coerce a CLI string to the type of the field it overrides.

    Non-string values (programmatic use) pass through unchanged, except that
    a scalar given for a tuple field becomes a one-element tuple; strings are
    converted using the current field value as the type template, so
    ``"4096"`` becomes an int for ``topology.nodes`` and ``"0.1,0.5"``
    becomes a float tuple for ``failures.levels``.
    """
    if not isinstance(raw, str):
        value = _freeze(raw)
        if isinstance(template, tuple) and not isinstance(value, tuple):
            return (value,)  # a typed scalar for a sweep axis, like "256"
        return value
    if isinstance(template, tuple):
        if not raw.strip():
            return ()
        return tuple(parse_scalar(part) for part in raw.split(","))
    if isinstance(template, bool):
        value = parse_scalar(raw)
        if not isinstance(value, bool):
            raise SpecError(f"expected a boolean (true/false), got {raw!r}")
        return value
    if isinstance(template, int):
        value = parse_scalar(raw)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"expected an integer, got {raw!r}")
        return value
    if isinstance(template, float):
        value = parse_scalar(raw)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SpecError(f"expected a number, got {raw!r}")
        return float(value)
    if isinstance(template, str):
        return raw.strip()
    # template is None or an unknown type: best-effort parse.
    return parse_scalar(raw)


def override_template(spec: ScenarioSpec, key: str) -> Any:
    """Return the current value of dotted-path ``key`` (the coercion template)."""
    if key in _UNREAD_FIELDS:
        raise SpecError(
            f"{key} cannot be overridden: no registered scenario reads it; "
            f"{_UNREAD_FIELDS[key]}"
        )
    head, _, tail = key.partition(".")
    if head in _TOP_FIELDS and not tail:
        return getattr(spec, head)
    if head in _SUB_SPECS and tail:
        sub = getattr(spec, head)
        if tail in {field.name for field in dataclasses.fields(sub)}:
            return getattr(sub, tail)
        raise SpecError(
            f"unknown override key {key!r}: {head!r} has fields "
            f"{sorted(field.name for field in dataclasses.fields(sub))}"
        )
    if head == "extras" and tail:
        extras = spec.extras_dict()
        if tail not in extras:
            # Only declared extras are overridable; accepting arbitrary keys
            # would turn a typo'd --set into a silent no-op.
            raise SpecError(
                f"unknown extras key {key!r}; this spec declares "
                f"{sorted(extras) or 'no extras'}"
            )
        return extras[tail]
    valid = [*(f"{s}.<field>" for s in _SUB_SPECS), *_TOP_FIELDS, "extras.<key>"]
    raise SpecError(f"unknown override key {key!r}; expected one of {valid}")


def coerce_override(spec: ScenarioSpec, key: str, value: Any) -> Any:
    """Coerce one override value to the type of the field ``key`` addresses.

    Validates the key against ``spec`` (raising :class:`SpecError` for
    unknown paths) and converts CLI strings to the field's type; typed values
    pass through.  Used by sweeps to canonicalise grid values before seed
    derivation, so a CLI grid (``"128"``) and a Python grid (``128``) produce
    identical cells.
    """
    return _coerce(value, override_template(spec, key))


def apply_overrides(spec: ScenarioSpec, overrides: Mapping[str, Any]) -> ScenarioSpec:
    """Apply dotted-path overrides to ``spec``, returning a new validated spec.

    Keys address common fields through the sub-spec name
    (``"topology.nodes"``), the top-level fields directly (``"engine"``,
    ``"seed"``), and scenario-specific parameters through ``"extras.<key>"``.
    String values are coerced to the overridden field's type; non-string
    values are used as given.  Unknown keys and un-coercible values raise
    :class:`SpecError`.
    """
    updated = spec
    for key, raw in overrides.items():
        template = override_template(updated, key)
        value = _coerce(raw, template)
        head, _, tail = key.partition(".")
        if head in _TOP_FIELDS and not tail:
            updated = dataclasses.replace(updated, **{head: value})
        elif head in _SUB_SPECS:
            sub = dataclasses.replace(getattr(updated, head), **{tail: value})
            updated = dataclasses.replace(updated, **{head: sub})
        else:  # extras.<key> — override_template already rejected anything else
            extras = updated.extras_dict()
            extras[tail] = value
            updated = dataclasses.replace(updated, extras=extras)
    return updated
