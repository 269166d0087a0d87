"""Engine-level behaviour of ``repro check``: suppressions, reporters, exit codes."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools import (
    CHECK_SCHEMA,
    Finding,
    LintEngine,
    catalog,
    parse_suppressions,
    rule_ids,
)
from repro.devtools.engine import discover_root
from repro.devtools.findings import UNUSED_SUPPRESSION_ID
from repro.devtools.reporters import render_json, render_text


def make_project(tmp_path: Path, files: dict[str, str]) -> Path:
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "fixture"\n', encoding="utf-8"
    )
    for relative, content in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return tmp_path


VIOLATING = """
import random

def draw():
    return random.random()
"""

#: One finding per hot-path rule: RPR003 on line 5, RPR005 on line 6.
BOTH_RULES = """
import numpy as np
from repro import telemetry
def grow(values):
    telemetry.current().count("route.rounds")
    return np.append(values, values)
"""


class TestSuppressionParsing:
    def test_end_of_line_covers_only_its_line(self):
        (suppression,) = parse_suppressions("x = 1  # repro: allow[RPR001] why\n")
        assert suppression.rules == frozenset({"RPR001"})
        assert suppression.covers == frozenset({1})

    def test_standalone_comment_also_covers_next_line(self):
        source = "# repro: allow[RPR001, RPR005] shared reason\nx = 1\n"
        (suppression,) = parse_suppressions(source)
        assert suppression.rules == frozenset({"RPR001", "RPR005"})
        assert suppression.covers == frozenset({1, 2})

    def test_mention_inside_string_literal_is_not_a_suppression(self):
        assert parse_suppressions('text = "# repro: allow[RPR001]"\n') == []

    def test_matches_requires_rule_and_line(self):
        (suppression,) = parse_suppressions("x = 1  # repro: allow[RPR001]\n")
        assert suppression.matches("RPR001", 1)
        assert not suppression.matches("RPR002", 1)
        assert not suppression.matches("RPR001", 2)


class TestEngine:
    def test_unused_suppression_is_reported(self, tmp_path):
        project = make_project(
            tmp_path,
            {"src/app.py": "x = 1  # repro: allow[RPR001] nothing to allow here\n"},
        )
        result = LintEngine(root=project).run()
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == UNUSED_SUPPRESSION_ID
        assert "unused suppression" in finding.message

    def test_unused_suppression_not_reported_when_rule_not_run(self, tmp_path):
        project = make_project(
            tmp_path,
            {"src/app.py": "x = 1  # repro: allow[RPR001] nothing to allow here\n"},
        )
        result = LintEngine(root=project, select=["RPR005", "RPR000"]).run()
        assert result.findings == []

    def test_suppression_naming_an_unknown_id_is_reported_whatever_ran(self, tmp_path):
        source = (
            "a = 1  # repro: allow[RPA101] a retired id\n"
            "b = 2  # repro: allow[RPR999] a misspelt id\n"
            "c = 3  # repro: allow[RPR001] nothing to allow here\n"
        )
        project = make_project(tmp_path, {"src/app.py": source})
        findings = LintEngine(root=project).run().findings
        assert {f.rule for f in findings} == {UNUSED_SUPPRESSION_ID}
        assert [f.line for f in findings] == [1, 2, 3]
        assert "unknown rule id RPA101" in findings[0].message
        assert "unknown rule id RPR999" in findings[1].message
        assert "unused suppression" in findings[2].message
        # A known id that did not run stays unjudged; an unknown one does not.
        narrow = LintEngine(root=project, select=["RPR005", "RPR000"]).run().findings
        assert [f.line for f in narrow] == [1, 2]

    def test_stale_hot_path_suppression_is_reported_as_rpr000(self, tmp_path):
        stale = "x = 1  # repro: allow[RPR003] nothing records here\n"
        project = make_project(tmp_path, {"src/repro/fastpath/app.py": stale})
        (finding,) = LintEngine(root=project).run().findings
        assert (finding.rule, finding.line) == (UNUSED_SUPPRESSION_ID, 1)
        assert "allow[RPR003]" in finding.message
        assert LintEngine(root=project, ignore=["RPR003"]).run().findings == []

    def test_unknown_rule_id_raises(self, tmp_path):
        project = make_project(tmp_path, {"src/app.py": "x = 1\n"})
        for unknown in ("RPR999", "RPA101"):
            with pytest.raises(KeyError, match="unknown rule id"):
                LintEngine(root=project, select=[unknown]).run()
            with pytest.raises(KeyError, match="unknown rule id"):
                LintEngine(root=project, ignore=[unknown]).run()

    def test_syntax_error_becomes_a_finding(self, tmp_path):
        project = make_project(tmp_path, {"src/broken.py": "def f(:\n"})
        result = LintEngine(root=project).run()
        assert result.exit_code == 1
        assert result.findings[0].rule == "SYNTAX"

    def test_exit_code_and_explicit_paths(self, tmp_path):
        project = make_project(
            tmp_path,
            {"src/bad.py": VIOLATING, "src/good.py": "x = 1\n"},
        )
        engine = LintEngine(root=project)
        assert engine.run().exit_code == 1
        only_good = engine.run(["src/good.py"])
        assert only_good.exit_code == 0
        assert only_good.files_checked == 1

    def test_walk_skips_pycache_and_dedups(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/app.py": "x = 1\n",
                "src/__pycache__/junk.py": "import random\n",
            },
        )
        files = LintEngine(root=project).walk()
        assert [path.name for path in files] == ["app.py"]
        twice = LintEngine(root=project).walk(["src", "src/app.py"])
        assert len(twice) == 1

    def test_ignore_drops_a_rule(self, tmp_path):
        project = make_project(tmp_path, {"src/bad.py": VIOLATING})
        result = LintEngine(root=project, ignore=["RPR001"]).run()
        assert result.findings == []
        assert "RPR001" not in result.rules_run

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        project = make_project(
            tmp_path,
            {"src/a.py": VIOLATING, "src/b.py": VIOLATING},
        )
        result = LintEngine(root=project).run()
        locations = [(finding.path, finding.line) for finding in result.findings]
        assert locations == sorted(locations)

    def test_one_run_reports_both_rules(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/fastpath/app.py": BOTH_RULES})
        result = LintEngine(root=project).run()
        assert [(f.rule, f.line) for f in result.findings] == [("RPR003", 5), ("RPR005", 6)]
        assert result.files_checked == 1
        assert result.rules_run == rule_ids()

    @pytest.mark.parametrize("suppressed, left", [("RPR003", "RPR005"), ("RPR005", "RPR003")])
    def test_each_rule_is_suppressed_by_its_own_allow(self, tmp_path, suppressed, left):
        line = {
            "RPR003": 'telemetry.current().count("route.rounds")',
            "RPR005": "return np.append(values, values)",
        }
        source = BOTH_RULES.replace(
            line[suppressed], f"{line[suppressed]}  # repro: allow[{suppressed}] fixture"
        )
        project = make_project(tmp_path, {"src/repro/fastpath/app.py": source})
        assert [f.rule for f in LintEngine(root=project).run().findings] == [left]

    def test_select_one_id_runs_and_lists_only_it(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/fastpath/app.py": BOTH_RULES})
        result = LintEngine(root=project, select=["RPR003"]).run()
        assert [f.rule for f in result.findings] == ["RPR003"]
        assert result.rules_run == ("RPR003",)

    def test_scope_is_the_rules_not_the_commands(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/scenarios/app.py": BOTH_RULES})
        assert LintEngine(root=project).run().findings == []
        assert LintEngine(root=project).run(["src/repro/scenarios/app.py"]).findings == []

    def test_discover_root_finds_pyproject(self, tmp_path):
        project = make_project(tmp_path, {"src/app.py": "x = 1\n"})
        assert discover_root(project / "src") == project


class TestRuleRegistry:
    def test_four_rules_with_unique_ids(self):
        ids = rule_ids()
        # RPR004, RPR006 and RPA101..RPA104 are retired; their ids are never reused.
        assert ids == ("RPR001", "RPR002", "RPR003", "RPR005")
        for rule_id, name, description in catalog():
            assert rule_id in ids
            assert name
            assert description


class TestReporters:
    def test_text_report_has_locations_and_summary(self, tmp_path):
        project = make_project(tmp_path, {"src/bad.py": VIOLATING})
        result = LintEngine(root=project).run()
        text = render_text(result)
        assert "src/bad.py:5:" in text
        assert "RPR001" in text
        assert "repro check: 1 finding" in text

    def test_json_report_round_trips(self, tmp_path):
        project = make_project(tmp_path, {"src/bad.py": VIOLATING})
        result = LintEngine(root=project).run()
        payload = json.loads(render_json(result))
        assert payload["schema"] == CHECK_SCHEMA
        assert payload["findings"] == [finding.to_dict() for finding in result.findings]
        assert payload["files_checked"] == result.files_checked
        assert tuple(payload["rules_run"]) == result.rules_run

    def test_finding_dict_round_trip(self):
        finding = Finding(path="src/x.py", line=3, col=7, rule="RPR001", message="m")
        assert Finding(**finding.to_dict()) == finding
        assert finding.location() == "src/x.py:3:7"


class TestLintCli:
    def test_exit_zero_on_clean_project(self, tmp_path, capsys):
        from repro.experiments.cli import main

        project = make_project(tmp_path, {"src/app.py": "x = 1\n"})
        assert main(["check", "--root", str(project)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        from repro.experiments.cli import main

        project = make_project(tmp_path, {"src/bad.py": VIOLATING})
        assert main(["check", "--root", str(project)]) == 1
        assert "RPR001" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        from repro.experiments.cli import main

        project = make_project(tmp_path, {"src/app.py": "x = 1\n"})
        assert main(["check", "--root", str(project), "--select", "RPR999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_json_format_emits_schema(self, tmp_path, capsys):
        from repro.experiments.cli import main

        project = make_project(tmp_path, {"src/bad.py": VIOLATING})
        assert main(["check", "--root", str(project), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == CHECK_SCHEMA
        assert payload["findings"][0]["rule"] == "RPR001"

    def test_list_rules_exits_zero(self, capsys):
        from repro.experiments.cli import main

        assert main(["check", "--list-rules"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == list(rule_ids())
