"""The repository holds itself to its own checker and generated docs.

These are the drift gates: the full tree checks clean on all eight rule ids,
the README counter glossary is byte-identical to what
``repro/telemetry/names.py`` renders, and the README scenario catalog names
exactly the scenarios the runtime registry holds.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.devtools import LintEngine, rule_ids
from repro.devtools.reporters import render_text
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
        assert result.rules_run == rule_ids() == (
            "RPR001", "RPR002", "RPR003", "RPR005", "RPA101", "RPA102", "RPA103", "RPA104"
        )


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
    BEGIN = "<!-- scenario-catalog:begin (checked by tests/unit/test_devtools_self.py) -->"
    END = "<!-- scenario-catalog:end -->"
    #: A catalog table row: the first cell holds the backticked scenario name.
    ROW = re.compile(r"^\|\s*`([a-z0-9-]+)`")

    def test_catalog_matches_runtime_registry(self):
        from repro.scenarios import available_scenarios

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        begin = readme.find(self.BEGIN)
        end = readme.find(self.END)
        assert 0 <= begin < end
        documented = {
            match.group(1)
            for line in readme[begin:end].splitlines()
            if (match := self.ROW.match(line.strip()))
        }
        registered = {definition.name for definition in available_scenarios()}
        assert documented == registered
