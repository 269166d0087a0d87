"""RPR004 — the scenario registry and the README scenario catalog must agree.

The CLI derives ``repro list`` / ``repro run`` from ``@register_scenario``
decorators at runtime, so the only thing that can drift is the
*documentation*: the README's scenario catalog (the table between the
``<!-- scenario-catalog:begin/end -->`` markers).  This rule statically
enumerates every ``@register_scenario("name", ...)`` decorator in ``src/``
and cross-checks the catalog both ways:

* a registered scenario missing from the catalog — undocumented surface;
* a catalog row naming an unregistered scenario — stale documentation;
* duplicate registrations of the same name (the runtime registry rejects
  them with an exception, but the checker catches it before anything runs).

This replaces the CI shell guard that asserted a hard-coded name list
against ``repro list`` output: the catalog is now the committed claim, and
``repro check`` fails the moment code and claim disagree.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.devtools.findings import Finding
from repro.devtools.rules import LintModule, LintProject, Rule

__all__ = ["RegistryDriftRule", "CATALOG_BEGIN", "CATALOG_END"]

CATALOG_BEGIN = "<!-- scenario-catalog:begin (checked by repro check RPR004) -->"
CATALOG_END = "<!-- scenario-catalog:end -->"

#: A catalog table row: the first cell holds the backticked scenario name.
_CATALOG_ROW = re.compile(r"^\|\s*`([a-z0-9-]+)`")


class RegistryDriftRule(Rule):
    id = "RPR004"
    name = "registry-drift"
    description = (
        "@register_scenario decorators and the README scenario catalog must "
        "name exactly the same scenarios (two-way drift check, replaces the "
        "CI shell guard)"
    )

    def __init__(self) -> None:
        #: name -> (path, line) of each registration site.
        self._registered: dict[str, tuple[str, int]] = {}
        self._duplicates: list[Finding] = []

    def applies_to(self, module: LintModule) -> bool:
        return module.in_dir("src")

    def check_module(self, module: LintModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                func = decorator.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name != "register_scenario":
                    continue
                if not decorator.args:
                    continue
                first = decorator.args[0]
                if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                    yield module.finding(
                        self.id,
                        decorator,
                        "@register_scenario name is not a string literal; the "
                        "registry cannot be checked statically",
                    )
                    continue
                scenario = first.value
                if scenario in self._registered:
                    previous_path, previous_line = self._registered[scenario]
                    self._duplicates.append(
                        module.finding(
                            self.id,
                            decorator,
                            f"scenario `{scenario}` is registered twice (first at "
                            f"{previous_path}:{previous_line}) — the runtime "
                            "registry will reject the second registration",
                        )
                    )
                else:
                    self._registered[scenario] = (module.path, decorator.lineno)
        return ()

    def finalize(self, project: LintProject) -> Iterable[Finding]:
        yield from self._duplicates
        readme = project.read_text("README.md")
        if readme is None:
            # Nothing to cross-check against (fixture projects without docs).
            return
        begin = readme.find(CATALOG_BEGIN)
        end = readme.find(CATALOG_END)
        if begin < 0 or end < 0 or end < begin:
            if self._registered:
                yield Finding(
                    path="README.md",
                    line=1,
                    col=1,
                    rule=self.id,
                    message=(
                        "README.md has no scenario-catalog block "
                        f"({CATALOG_BEGIN!r} ... {CATALOG_END!r}); add the catalog "
                        "table so registered scenarios are documented"
                    ),
                )
            return
        block = readme[begin:end]
        block_start_line = readme[:begin].count("\n") + 1
        documented: dict[str, int] = {}
        for offset, line in enumerate(block.splitlines()):
            match = _CATALOG_ROW.match(line.strip())
            if match:
                documented.setdefault(match.group(1), block_start_line + offset)
        for scenario, line in sorted(documented.items()):
            if scenario not in self._registered:
                yield Finding(
                    path="README.md",
                    line=line,
                    col=1,
                    rule=self.id,
                    message=(
                        f"README scenario catalog lists `{scenario}` but no "
                        "@register_scenario decorator registers it — stale docs"
                    ),
                )
        for scenario, (path, line) in sorted(self._registered.items()):
            if scenario not in documented:
                yield Finding(
                    path=path,
                    line=line,
                    col=1,
                    rule=self.id,
                    message=(
                        f"scenario `{scenario}` is registered here but missing "
                        "from the README scenario catalog — document it in the "
                        "catalog table"
                    ),
                )
