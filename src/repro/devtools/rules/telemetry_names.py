"""RPR002 — every telemetry metric name must be declared in the registry.

:mod:`repro.telemetry.names` is the single source of truth for counter /
gauge / histogram names (it also generates the README glossary).  This rule
statically extracts the name string of every telemetry call in ``src/`` —
method calls on a session object (``tel.count(...)``, ``tel.observe(...)``,
...) and direct ``Counter(...)`` / ``Gauge(...)`` / ``Histogram(...)``
constructions — and checks it against the registry.

F-strings are matched structurally: ``f"refresh.ops.{kind}"`` becomes the
pattern ``refresh.ops.*`` and must match a registered name with a
``<placeholder>`` in exactly that segment, so dynamic names cannot bypass
the registry.  The finalize pass reports registry entries no call site
emits — a glossary row describing a metric that no longer exists is drift
in the other direction.

Tests are deliberately out of scope: they construct synthetic metrics to
exercise the telemetry layer itself.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.findings import Finding
from repro.devtools.rules import ImportMap, LintModule, LintProject, Rule, dotted_name, iter_calls
from repro.telemetry.names import METRIC_NAMES, metric_is_registered

__all__ = ["TelemetryNamesRule"]

#: Telemetry session methods whose first argument is a metric name.
_RECORD_METHODS = frozenset({"count", "gauge", "observe", "observe_many", "histogram"})
#: Telemetry metric constructors (resolved through imports).
_CONSTRUCTORS = {
    "repro.telemetry.Counter",
    "repro.telemetry.Gauge",
    "repro.telemetry.Histogram",
    "repro.telemetry.core.Counter",
    "repro.telemetry.core.Gauge",
    "repro.telemetry.core.Histogram",
}
#: Calls whose result is a telemetry session object.
_SESSION_SOURCES = {
    "repro.telemetry.current",
    "repro.telemetry.enable",
    "repro.telemetry.session",
    "repro.telemetry.core.current",
    "repro.telemetry.core.enable",
    "repro.telemetry.core.session",
}


def _metric_pattern(node: ast.expr) -> str | None:
    """The metric-name pattern of a call's first argument, if extractable.

    A plain string constant is itself; an f-string contributes ``*`` for
    each formatted field (dots inside constant parts keep their segment
    structure).  Anything else — a variable, a concatenation — returns
    ``None`` and is reported as unverifiable.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


class TelemetryNamesRule(Rule):
    id = "RPR002"
    name = "telemetry-name-registry"
    description = (
        "every metric name passed to a telemetry call must be declared in "
        "repro/telemetry/names.py (the registry that generates the README glossary)"
    )

    def __init__(self) -> None:
        self._names_module_seen = False
        self._emitted_patterns: set[str] = set()

    def applies_to(self, module: LintModule) -> bool:
        if module.path == "src/repro/telemetry/names.py":
            self._names_module_seen = True
            return False
        # telemetry/core.py forwards caller-supplied names by variable; tests
        # construct synthetic metrics on purpose.
        return module.in_dir("src") and not module.in_dir("src/repro/telemetry")

    def _session_names(self, module: LintModule, imports: ImportMap) -> set[str]:
        """Names bound to a telemetry session anywhere in the module.

        Collected from ``x = current()`` / ``x = enable()`` assignments and
        ``with session(...) as x`` bindings, across all scopes; method calls
        on any such name are treated as telemetry records.
        """
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                resolved = imports.resolve_call(node.value)
                if resolved in _SESSION_SOURCES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and imports.resolve_call(item.context_expr) in _SESSION_SOURCES
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        names.add(item.optional_vars.id)
        return names

    def check_module(self, module: LintModule) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        session_names = self._session_names(module, imports)

        for call in iter_calls(module.tree):
            kind: str | None = None
            if isinstance(call.func, ast.Attribute) and call.func.attr in _RECORD_METHODS:
                receiver = call.func.value
                receiver_is_session = (
                    isinstance(receiver, ast.Name) and receiver.id in session_names
                ) or (
                    isinstance(receiver, ast.Call)
                    and imports.resolve_call(receiver) in _SESSION_SOURCES
                )
                # Session objects passed as function parameters are
                # conventionally named `tel`.
                receiver_is_session = receiver_is_session or (
                    isinstance(receiver, ast.Name) and receiver.id == "tel"
                )
                if receiver_is_session:
                    kind = call.func.attr
            else:
                resolved = imports.resolve_call(call)
                if resolved in _CONSTRUCTORS:
                    kind = resolved.rsplit(".", 1)[-1].lower()
            if kind is None:
                continue
            if not call.args:
                continue
            pattern = _metric_pattern(call.args[0])
            if pattern is None:
                yield module.finding(
                    self.id,
                    call,
                    f"metric name passed to `{kind}` is not a literal; use a string "
                    "or f-string so it can be checked against repro/telemetry/names.py",
                )
                continue
            self._emitted_patterns.add(pattern)
            if not metric_is_registered(pattern):
                yield module.finding(
                    self.id,
                    call,
                    f"metric name `{pattern}` is not declared in "
                    "repro/telemetry/names.py — register it (dynamic segments as "
                    "`<placeholder>`) so the glossary stays the single source of truth",
                )

    def finalize(self, project: LintProject) -> Iterable[Finding]:
        if not self._names_module_seen:
            return
        from repro.telemetry.names import _segments_match  # shared matcher

        names_path = "src/repro/telemetry/names.py"
        source = project.read_text(names_path) or ""
        lines = source.splitlines()
        for entry in METRIC_NAMES:
            emitted = any(
                _segments_match(entry.segments(), pattern.split("."))
                for pattern in self._emitted_patterns
            )
            if emitted:
                continue
            line = next(
                (
                    index + 1
                    for index, text in enumerate(lines)
                    if f'"{entry.name}"' in text
                ),
                1,
            )
            yield Finding(
                path=names_path,
                line=line,
                col=1,
                rule=self.id,
                message=(
                    f"registered metric `{entry.name}` is never emitted by any "
                    "telemetry call in src/ — remove the stale registry entry "
                    "(and its glossary row)"
                ),
            )
