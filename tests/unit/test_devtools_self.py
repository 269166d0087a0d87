"""The repository holds itself to its own checker and generated docs.

These are the drift gates: the full tree checks clean on all ten rule ids, the README counter
glossary is byte-identical to what ``repro/telemetry/names.py`` renders,
the scenario catalog matches the runtime registry, and the conformance
rule's fallback surface matches the parsed ``Overlay`` protocol.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.devtools import LintEngine, rule_ids
from repro.devtools.reporters import render_text
from repro.devtools.rules.overlay_conformance import FALLBACK_MEMBERS
from repro.devtools.rules.registry_drift import _CATALOG_ROW, CATALOG_BEGIN, CATALOG_END
from repro.telemetry.names import (
    GLOSSARY_BEGIN,
    GLOSSARY_END,
    METRIC_NAMES,
    metric_is_registered,
    update_glossary_block,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRepoLintsClean:
    def test_full_tree_has_zero_findings(self):
        result = LintEngine(root=REPO_ROOT).run()
        assert result.findings == [], "\n" + render_text(result)
        tree = [*(REPO_ROOT / "src").rglob("*.py"), *(REPO_ROOT / "tests").rglob("*.py")]
        assert result.files_checked == len(tree)  # each file parsed once
        assert result.rules_run == rule_ids() and len(rule_ids()) == 10


class TestReadmeGlossary:
    def test_glossary_block_is_in_sync_with_registry(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert GLOSSARY_BEGIN in readme and GLOSSARY_END in readme
        assert update_glossary_block(readme) == readme, (
            "README counter glossary is stale — run "
            "`python -m repro.telemetry.names --write README.md`"
        )

    def test_every_registered_name_matches_itself(self):
        for entry in METRIC_NAMES:
            observed = ".".join(
                "*" if segment.startswith("<") else segment
                for segment in entry.segments()
            )
            assert metric_is_registered(observed), entry.name


class TestReadmeScenarioCatalog:
    def test_catalog_matches_runtime_registry(self):
        from repro.scenarios import available_scenarios

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        begin = readme.find(CATALOG_BEGIN)
        end = readme.find(CATALOG_END)
        assert 0 <= begin < end
        documented = {
            match.group(1)
            for line in readme[begin:end].splitlines()
            if (match := _CATALOG_ROW.match(line.strip()))
        }
        registered = {definition.name for definition in available_scenarios()}
        assert documented == registered


class TestOverlayFallbackSurface:
    def test_fallback_matches_parsed_protocol(self):
        source = (REPO_ROOT / "src/repro/overlay/protocol.py").read_text(
            encoding="utf-8"
        )
        tree = ast.parse(source)
        overlay = next(
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "Overlay"
        )
        members = set()
        for statement in overlay.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(statement.name)
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                members.add(statement.target.id)
        members = {member for member in members if not member.startswith("_")}
        assert members == set(FALLBACK_MEMBERS)
