"""The ``repro check`` driver: walk files, run rules, apply suppressions, report.

The engine is deliberately rule-agnostic: it parses each file once, hands
the module to every selected rule, runs cross-file ``finalize`` passes, then
applies ``# repro: allow[...]`` suppressions and reports the stale ones.
Rule instances are created fresh per run (cross-file rules accumulate state
in ``check_module``).  A rule may report under several ids (the dtype
dataflow rule owns RPA101..RPA104): it runs when any of them is selected
and only findings under a selected id are kept.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.devtools.findings import CHECK_SCHEMA, UNUSED_SUPPRESSION_ID, Finding
from repro.devtools.rules import ALL_RULES, LintModule, LintProject, rule_ids
from repro.devtools.suppressions import Suppression, parse_suppressions

__all__ = ["LintEngine", "LintResult", "discover_root", "walk"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", ".claude"}
_DEFAULT_TARGETS = ("src", "tests")


def discover_root(start: Path | None = None) -> Path:
    """The nearest ancestor of ``start`` (default: cwd) holding pyproject.toml."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def walk(root: Path, paths: Sequence[str | Path], defaults: Sequence[str]) -> list[Path]:
    """Every ``.py`` file under ``paths``, or under the ``defaults`` that exist.

    Raises
    ------
    FileNotFoundError
        If a path the caller named is neither a ``.py`` file nor a directory
        (a default that is missing is skipped).
    """
    targets = [root / path for path in paths]
    for target in targets:
        if not (target.is_dir() or (target.is_file() and target.suffix == ".py")):
            raise FileNotFoundError(f"not a .py file or a directory: {target}")
    if not targets:
        targets = [root / name for name in defaults if (root / name).is_dir()]
    unique: dict[Path, None] = {}
    for target in targets:
        if target.is_file():
            unique.setdefault(target.resolve(), None)
            continue
        for candidate in sorted(target.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in candidate.parts):
                unique.setdefault(candidate.resolve(), None)
    return list(unique)


@dataclass
class LintResult:
    """Everything one run produced."""

    findings: list[Finding]
    files_checked: int
    rules_run: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "schema": CHECK_SCHEMA,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "findings": [finding.to_dict() for finding in self.findings],
        }


@dataclass
class LintEngine:
    """One configured run over a project tree."""

    root: Path
    select: Sequence[str] | None = None
    ignore: Sequence[str] = ()

    def selected_ids(self) -> tuple[str, ...]:
        """The catalog ids the select/ignore filters keep, in catalog order.

        RPR000 — the unused-suppression pseudo-rule — filters like any id
        and sorts first.

        Raises
        ------
        KeyError
            If a select/ignore id names no known rule.
        """
        known = (UNUSED_SUPPRESSION_ID, *rule_ids())
        requested = {rule_id.upper() for rule_id in (self.select or [])}
        ignored = {rule_id.upper() for rule_id in self.ignore}
        for rule_id in sorted(requested | ignored):
            if rule_id not in known:
                raise KeyError(
                    f"unknown rule id {rule_id!r}; known: {', '.join(sorted(known))}"
                )
        return tuple(
            rule_id
            for rule_id in known
            if (not requested or rule_id in requested) and rule_id not in ignored
        )

    # -- file walking --------------------------------------------------------

    def walk(self, paths: Sequence[str | Path] = ()) -> list[Path]:
        """Every ``.py`` file under the given paths (default: src/ and tests/)."""
        return walk(self.root, paths, _DEFAULT_TARGETS)

    # -- the run -------------------------------------------------------------

    def run(self, paths: Sequence[str | Path] = ()) -> LintResult:
        selected = self.selected_ids()
        rules_run = tuple(rule_id for rule_id in selected if rule_id != UNUSED_SUPPRESSION_ID)
        rules = [type(rule)() for rule in ALL_RULES if set(rules_run).intersection(rule.ids())]
        modules: list[LintModule] = []
        raw_findings: list[Finding] = []
        suppressions: dict[str, list[Suppression]] = {}

        for abs_path in self.walk(paths):
            try:
                relative = abs_path.relative_to(self.root).as_posix()
            except ValueError:
                relative = abs_path.as_posix()
            source = abs_path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(abs_path))
            except SyntaxError as error:
                raw_findings.append(
                    Finding(
                        path=relative,
                        line=error.lineno or 1,
                        col=(error.offset or 0) + 1,
                        rule="SYNTAX",
                        message=f"cannot parse: {error.msg}",
                    )
                )
                continue
            module = LintModule(path=relative, abs_path=abs_path, source=source, tree=tree)
            modules.append(module)
            suppressions[relative] = parse_suppressions(source)
            for rule in rules:
                if rule.applies_to(module):
                    raw_findings.extend(rule.check_module(module))

        project = LintProject(root=self.root, modules=modules)
        for rule in rules:
            raw_findings.extend(rule.finalize(project))

        findings: list[Finding] = []
        for finding in raw_findings:
            if finding.rule not in selected and finding.rule != "SYNTAX":
                continue
            matching = [
                suppression
                for suppression in suppressions.get(finding.path, [])
                if suppression.matches(finding.rule, finding.line)
            ]
            for suppression in matching:
                suppression.used = True
            if not matching:
                findings.append(finding)
        if UNUSED_SUPPRESSION_ID in selected:
            findings.extend(_unused_suppression_findings(suppressions, set(rules_run)))
        findings.sort()
        return LintResult(findings=findings, files_checked=len(modules), rules_run=rules_run)


def _unused_suppression_findings(
    suppressions: dict[str, list[Suppression]], ran: set[str]
) -> list[Finding]:
    unused: list[Finding] = []
    for path, in_file in suppressions.items():
        for suppression in in_file:
            # Only call a suppression stale when every id it names actually
            # ran — otherwise we cannot know it is unused.
            if suppression.used or not suppression.rules <= ran:
                continue
            unused.append(
                Finding(
                    path=path,
                    line=suppression.line,
                    col=1,
                    rule=UNUSED_SUPPRESSION_ID,
                    message=(
                        "unused suppression: `# repro: allow["
                        + ",".join(sorted(suppression.rules))
                        + "]` matched no finding — remove it"
                    ),
                )
            )
    return unused
