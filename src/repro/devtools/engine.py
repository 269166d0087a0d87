"""The lint driver: walk files, run rules, apply suppressions, report.

The engine is deliberately rule-agnostic: it parses each file once, hands
the module to every selected rule, runs cross-file ``finalize`` passes, then
applies ``# repro: allow[...]`` suppressions and reports the stale ones.
Rule instances are created fresh per run (cross-file rules accumulate state
in ``check_module``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.findings import LINT_SCHEMA, UNUSED_SUPPRESSION_ID, Finding
from repro.devtools.rules import ALL_RULES, LintModule, LintProject, Rule
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
    """Everything one lint run produced."""

    findings: list[Finding]
    files_checked: int
    rules_run: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "schema": LINT_SCHEMA,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "findings": [finding.to_dict() for finding in self.findings],
        }


@dataclass
class LintEngine:
    """One configured lint run over a project tree."""

    root: Path
    select: Sequence[str] | None = None
    ignore: Sequence[str] = ()
    _suppressions: dict[str, list[Suppression]] = field(default_factory=dict, repr=False)

    def selected_rules(self) -> list[Rule]:
        """Fresh instances of every rule the select/ignore filters keep.

        Raises
        ------
        KeyError
            If a select/ignore id names no known rule (RPR000 is accepted —
            it filters the unused-suppression pseudo-findings).
        """
        known = {rule.id for rule in ALL_RULES} | {UNUSED_SUPPRESSION_ID}
        requested = {rule_id.upper() for rule_id in (self.select or [])}
        ignored = {rule_id.upper() for rule_id in self.ignore}
        for rule_id in requested | ignored:
            if rule_id not in known:
                raise KeyError(
                    f"unknown lint rule {rule_id!r}; known: {', '.join(sorted(known))}"
                )
        return [
            type(rule)()
            for rule in ALL_RULES
            if (not requested or rule.id in requested) and rule.id not in ignored
        ]

    def _unused_suppressions_selected(self) -> bool:
        requested = {rule_id.upper() for rule_id in (self.select or [])}
        ignored = {rule_id.upper() for rule_id in self.ignore}
        if UNUSED_SUPPRESSION_ID in ignored:
            return False
        return not requested or UNUSED_SUPPRESSION_ID in requested

    # -- file walking --------------------------------------------------------

    def walk(self, paths: Sequence[str | Path] = ()) -> list[Path]:
        """Every ``.py`` file under the given paths (default: src/ and tests/)."""
        return walk(self.root, paths, _DEFAULT_TARGETS)

    # -- the run -------------------------------------------------------------

    def run(self, paths: Sequence[str | Path] = ()) -> LintResult:
        rules = self.selected_rules()
        modules: list[LintModule] = []
        raw_findings: list[Finding] = []
        self._suppressions = {}

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
            self._suppressions[relative] = parse_suppressions(source)
            for rule in rules:
                if rule.applies_to(module):
                    raw_findings.extend(rule.check_module(module))

        project = LintProject(root=self.root, modules=modules)
        for rule in rules:
            raw_findings.extend(rule.finalize(project))

        findings = self._apply_suppressions(raw_findings)
        if self._unused_suppressions_selected():
            findings.extend(self._unused_suppression_findings())
        findings.sort()
        return LintResult(
            findings=findings,
            files_checked=len(modules),
            rules_run=tuple(rule.id for rule in rules),
        )

    def _apply_suppressions(self, findings: Iterable[Finding]) -> list[Finding]:
        kept: list[Finding] = []
        for finding in findings:
            suppressed = False
            for suppression in self._suppressions.get(finding.path, []):
                if suppression.matches(finding.rule, finding.line):
                    suppression.used = True
                    suppressed = True
            if not suppressed:
                kept.append(finding)
        return kept

    def _unused_suppression_findings(self) -> list[Finding]:
        unused: list[Finding] = []
        active = {rule.id for rule in self.selected_rules()}
        for path, suppressions in self._suppressions.items():
            for suppression in suppressions:
                if suppression.used:
                    continue
                # Only call a suppression stale when every rule it names
                # actually ran — otherwise we cannot know it is unused.
                if not suppression.rules <= active:
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
