"""The ``repro check`` rule catalog and the shared AST toolkit rules build on.

Each rule is a subclass of :class:`Rule` with a stable id (``RPR001`` ...),
a per-module visitor (:meth:`Rule.check_module`), and — for cross-file
invariants like RPR002's stale-registry check — a :meth:`Rule.finalize` pass
over the whole project.  ``ALL_RULES`` is the ordered catalog the engine and
the CLI share, one row per rule.

A rule earns its place by catching what no test can: a source-level fact
that leaves results unchanged (a clock read, a second ``current()`` fetch,
an ``np.append``).  An invariant the program holds as runtime data — the
scenario registry, the ``Overlay`` protocol, the snapshot dtype contract
(``tests/property/test_property_dtypes.py`` reads
:data:`repro.fastpath.dtypes.SNAPSHOT_CONTRACT`) — is checked by a test over
that data instead.

Adding a rule: subclass :class:`Rule` in a new module here, give it the next
unused ``RPRnnn`` id, append it to ``ALL_RULES``, add the row to the README
catalog, and add violating/clean/suppressed fixtures to
``tests/unit/test_devtools_rules.py`` — the self-check test will hold the
repo to it immediately.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.devtools.findings import Finding

__all__ = [
    "ALL_RULES",
    "ImportMap",
    "LintModule",
    "LintProject",
    "Rule",
    "catalog",
    "dotted_name",
    "iter_calls",
    "rule_ids",
]


# ---------------------------------------------------------------------------
# What rules see: one parsed module, and the whole project
# ---------------------------------------------------------------------------


@dataclass
class LintModule:
    """One parsed source file under lint."""

    path: str  # repo-relative, posix separators
    abs_path: Path
    source: str
    tree: ast.Module
    _parents: dict[ast.AST, ast.AST] | None = field(default=None, repr=False)

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(self.path.split("/"))

    def in_dir(self, prefix: str) -> bool:
        """Whether the module lives under ``prefix`` (posix, repo-relative)."""
        prefix_parts = tuple(prefix.split("/"))
        return self.parts[: len(prefix_parts)] == prefix_parts

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent map over the module AST (built on first use)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's ancestor chain, innermost first."""
        parents = self.parents()
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """The innermost function/async-function definition containing ``node``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


@dataclass
class LintProject:
    """Everything a cross-file rule needs in :meth:`Rule.finalize`."""

    root: Path
    modules: list[LintModule]

    def read_text(self, relative: str) -> str | None:
        """Read a repo-relative file's text, if present."""
        path = self.root / relative
        try:
            return path.read_text(encoding="utf-8")
        except OSError:
            return None


class Rule:
    """Base class: one invariant, one stable id."""

    id: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, module: LintModule) -> bool:
        """Path scope; rules narrow this to the layers their invariant covers."""
        return True

    def check_module(self, module: LintModule) -> Iterable[Finding]:
        """Per-module pass; yield findings (or collect state for finalize)."""
        return ()

    def finalize(self, project: LintProject) -> Iterable[Finding]:
        """Cross-file pass, run once after every module was checked."""
        return ()


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


class ImportMap:
    """Module-level import aliases, for resolving call targets.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Only top-level
    and function-level imports are collected (the whole tree is walked, so
    late imports inside functions resolve too).
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: str) -> str:
        """Expand the leading alias of ``dotted`` to its imported target."""
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def resolve_call(self, call: ast.Call) -> str | None:
        name = dotted_name(call.func)
        return self.resolve(name) if name else None


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

from repro.devtools.rules.determinism import DeterminismRule  # noqa: E402
from repro.devtools.rules.telemetry_names import TelemetryNamesRule  # noqa: E402
from repro.devtools.rules.telemetry_guard import TelemetryGuardRule  # noqa: E402
from repro.devtools.rules.array_hygiene import ArrayHygieneRule  # noqa: E402

#: The ordered rules; ids are stable and a retired id (RPR004, RPR006,
#: RPA101..RPA104) is never reused.
ALL_RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    TelemetryNamesRule(),
    TelemetryGuardRule(),
    ArrayHygieneRule(),
)


def catalog() -> tuple[tuple[str, str, str], ...]:
    """Every ``(id, name, description)`` row, in catalog order."""
    return tuple((rule.id, rule.name, rule.description) for rule in ALL_RULES)


def rule_ids() -> tuple[str, ...]:
    return tuple(rule.id for rule in ALL_RULES)
