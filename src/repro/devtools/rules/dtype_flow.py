"""RPA101..RPA104 — NumPy dtype dataflow over the snapshot-contract packages.

The other rules check *syntactic* invariants; this one checks a *semantic*
one: every array the fastpath, faults, and overlay packages build carries the
dtype the snapshot contract in :mod:`repro.fastpath.dtypes` declares.  It is
one rule under four ids because the four checks are probes the one abstract
interpreter (:mod:`repro.devtools.analyze.interp`) fires on the same walk.

Every governed module goes through the interpreter **three times**.  The
first two passes only collect function summaries (so call sites across the
import graph resolve regardless of file order; summaries are one lattice
level deep, so two passes reach the fixed point); the third re-interprets
with reporting enabled.  Loop bodies are executed twice per pass, so raw
findings can repeat — they are de-duplicated here.

Tests are out of scope on purpose: they build odd dtypes intentionally and
are exercised by the fixtures instead.
"""

from __future__ import annotations

from typing import Iterable

from repro.devtools.analyze.checks import (
    CONTRACT_MISMATCH,
    DEFAULT_DTYPE,
    MIXED_CONCAT,
    SILENT_UPCAST,
)
from repro.devtools.analyze.interp import ModuleAnalyzer, SharedAnalysisState
from repro.devtools.findings import Finding
from repro.devtools.rules import LintModule, LintProject, Rule

__all__ = ["DtypeFlowRule"]

_GOVERNED = ("src/repro/fastpath", "src/repro/faults", "src/repro/overlay")

_CATALOG = (
    (
        SILENT_UPCAST,
        "silent-upcast",
        "integer arrays of definitely different widths combine (the narrow "
        "side is silently widened), or an int8/int16/int32 sum/cumsum "
        "without dtype=/out= promotes to the platform intp",
    ),
    (
        CONTRACT_MISMATCH,
        "contract-mismatch",
        "a snapshot or mirror array field is built with a dtype outside its "
        "declared contract in repro/fastpath/dtypes.py",
    ),
    (
        DEFAULT_DTYPE,
        "default-dtype-constructor",
        "an array constructor without dtype= takes a platform-dependent "
        "default (zeros/ones/empty/full/arange, or array/asarray of a "
        "non-array operand)",
    ),
    (
        MIXED_CONCAT,
        "mixed-dtype-concatenate",
        "concatenate/stack/where over operands of definitely different "
        "integer widths silently promotes every element to the widest",
    ),
)


class DtypeFlowRule(Rule):
    def catalog(self) -> tuple[tuple[str, str, str], ...]:
        return _CATALOG

    def applies_to(self, module: LintModule) -> bool:
        return any(module.in_dir(package) for package in _GOVERNED)

    def finalize(self, project: LintProject) -> Iterable[Finding]:
        modules = [module for module in project.modules if self.applies_to(module)]
        shared = SharedAnalysisState()
        for _ in range(2):
            for module in modules:
                ModuleAnalyzer(module, shared, report=False).run()
        findings: set[Finding] = set()
        for module in modules:
            findings.update(ModuleAnalyzer(module, shared, report=True).run())
        return sorted(findings)
