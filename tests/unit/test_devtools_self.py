"""The repository holds itself to its own checker and generated docs.

These are the drift gates: the full tree checks clean on all four rule ids,
the README counter glossary is byte-identical to what
``repro/telemetry/names.py`` renders, the one regenerator of the README's
generated blocks runs and rewrites them, and the README scenario catalog
names exactly the scenarios the runtime registry holds.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import LintEngine, rule_ids
from repro.devtools.reporters import render_text
from repro.devtools.readme import BLOCKS, GLOSSARY, main, replace_block
from repro.telemetry.names import METRIC_NAMES, metric_is_registered

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRepoLintsClean:
    def test_full_tree_has_zero_findings(self):
        result = LintEngine(root=REPO_ROOT).run()
        assert result.findings == [], "\n" + render_text(result)
        tree = [*(REPO_ROOT / "src").rglob("*.py"), *(REPO_ROOT / "tests").rglob("*.py")]
        assert result.files_checked == len(tree)  # each file parsed once
        assert result.rules_run == rule_ids() == ("RPR001", "RPR002", "RPR003", "RPR005")


class TestReadmeGlossary:
    def test_glossary_block_is_in_sync_with_registry(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert GLOSSARY.begin in readme and GLOSSARY.end in readme
        assert replace_block(readme, GLOSSARY) == readme, (
            "README counter glossary is stale — run "
            "`python -m repro.devtools.readme --write README.md`"
        )

    def test_every_registered_name_matches_itself(self):
        for entry in METRIC_NAMES:
            observed = ".".join(
                "*" if segment.startswith("<") else segment
                for segment in entry.segments()
            )
            assert metric_is_registered(observed), entry.name


class TestReadmeRegenerator:
    def test_runs_as_a_module_without_warnings(self):
        # No package __init__ imports the regenerator, so runpy finds no
        # half-imported copy of it to warn about.
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.devtools.readme"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert all(block.begin in done.stdout and block.end in done.stdout for block in BLOCKS)

    def test_write_rewrites_every_block(self, tmp_path):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        stale = readme
        for block in BLOCKS:
            begin = stale.index(block.begin) + len(block.begin)
            stale = stale[:begin] + "\n| stale |\n" + stale[stale.index(block.end):]
        path = tmp_path / "README.md"
        path.write_text(stale, encoding="utf-8")
        assert main(["--write", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == readme

    @pytest.mark.parametrize(
        "text", ["no markers", f"{GLOSSARY.end}\n{GLOSSARY.begin}"], ids=["missing", "reversed"]
    )
    def test_a_block_without_its_markers_is_refused(self, text):
        with pytest.raises(ValueError, match="markers not found"):
            replace_block(text, GLOSSARY)


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
