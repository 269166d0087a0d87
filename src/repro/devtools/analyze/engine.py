"""The analyze driver: walk governed packages, interpret, report.

Mirrors :class:`repro.devtools.engine.LintEngine` deliberately — same file
walking, same ``# repro: allow[...]`` suppression machinery, same exit-code
contract — but the run itself is different: instead of independent rule
visitors, every module goes through the one dataflow interpreter, **three
times**.  The first two passes only collect function summaries (so call
sites across the import graph resolve regardless of file order); the third
pass re-interprets with reporting enabled.  Loop bodies are executed twice
per pass, so raw findings can repeat — the engine deduplicates before
sorting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.analyze.checks import (
    ANALYZE_UNUSED_SUPPRESSION_ID,
    check_ids,
)
from repro.devtools.analyze.interp import ModuleAnalyzer, SharedAnalysisState
from repro.devtools.engine import discover_root, walk
from repro.devtools.findings import Finding
from repro.devtools.rules import LintModule
from repro.devtools.suppressions import Suppression, parse_suppressions

__all__ = ["ANALYZE_SCHEMA", "AnalyzeEngine", "AnalysisResult", "discover_root"]

#: Schema version stamped into the JSON report envelope.
ANALYZE_SCHEMA = "repro.analyze/v1"

#: The packages whose dtype discipline the analyzer governs.  Anything the
#: snapshot contract flows through belongs here; tests are exercised by the
#: fixtures instead (they intentionally build odd dtypes).
_GOVERNED_TARGETS = (
    "src/repro/fastpath",
    "src/repro/faults",
    "src/repro/overlay",
)


@dataclass
class AnalysisResult:
    """Everything one analyze run produced."""

    findings: list[Finding]
    files_checked: int
    checks_run: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "schema": ANALYZE_SCHEMA,
            "files_checked": self.files_checked,
            "checks_run": list(self.checks_run),
            "findings": [finding.to_dict() for finding in self.findings],
        }


@dataclass
class AnalyzeEngine:
    """One configured analyze run over the governed packages."""

    root: Path
    select: Sequence[str] | None = None
    ignore: Sequence[str] = ()
    _suppressions: dict[str, list[Suppression]] = field(default_factory=dict, repr=False)

    def selected_checks(self) -> tuple[str, ...]:
        """The check ids the select/ignore filters keep.

        Raises
        ------
        KeyError
            If a select/ignore id names no known check (RPA000 is accepted —
            it filters the unused-suppression pseudo-findings).
        """
        known = set(check_ids()) | {ANALYZE_UNUSED_SUPPRESSION_ID}
        requested = {check_id.upper() for check_id in (self.select or [])}
        ignored = {check_id.upper() for check_id in self.ignore}
        for check_id in requested | ignored:
            if check_id not in known:
                raise KeyError(
                    f"unknown analyze check {check_id!r}; known: {', '.join(sorted(known))}"
                )
        return tuple(
            check_id
            for check_id in check_ids()
            if (not requested or check_id in requested) and check_id not in ignored
        )

    def _unused_suppressions_selected(self) -> bool:
        requested = {check_id.upper() for check_id in (self.select or [])}
        ignored = {check_id.upper() for check_id in self.ignore}
        if ANALYZE_UNUSED_SUPPRESSION_ID in ignored:
            return False
        return not requested or ANALYZE_UNUSED_SUPPRESSION_ID in requested

    # -- file walking --------------------------------------------------------

    def walk(self, paths: Sequence[str | Path] = ()) -> list[Path]:
        """Every ``.py`` file under the given paths (default: governed packages)."""
        governed = [name for name in _GOVERNED_TARGETS if (self.root / name).is_dir()]
        return walk(self.root, paths, governed or ["src"])

    # -- the run -------------------------------------------------------------

    def run(self, paths: Sequence[str | Path] = ()) -> AnalysisResult:
        checks = self.selected_checks()
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

        shared = SharedAnalysisState()
        # Two summary passes reach the fixed point for the repo's import
        # graph (summaries are one lattice level deep); the third reports.
        for _ in range(2):
            for module in modules:
                ModuleAnalyzer(module, shared, report=False).run()
        for module in modules:
            raw_findings.extend(ModuleAnalyzer(module, shared, report=True).run())

        selected = set(checks) | {"SYNTAX"}
        raw_findings = [f for f in raw_findings if f.rule in selected]
        findings = self._apply_suppressions(sorted(set(raw_findings)))
        if self._unused_suppressions_selected():
            findings.extend(self._unused_suppression_findings())
        findings.sort()
        return AnalysisResult(
            findings=findings,
            files_checked=len(modules),
            checks_run=checks,
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
        active = set(self.selected_checks())
        for path, suppressions in self._suppressions.items():
            for suppression in suppressions:
                if suppression.used:
                    continue
                # Only call a suppression stale when every check it names
                # actually ran — a lint-only `# repro: allow[RPR...]` (or a
                # deselected check) is out of scope for this run.
                if not suppression.rules <= active:
                    continue
                unused.append(
                    Finding(
                        path=path,
                        line=suppression.line,
                        col=1,
                        rule=ANALYZE_UNUSED_SUPPRESSION_ID,
                        message=(
                            "unused suppression: `# repro: allow["
                            + ",".join(sorted(suppression.rules))
                            + "]` matched no finding — remove it"
                        ),
                    )
                )
        return unused
