"""Per-rule fixture projects for the AST rules of ``repro check``.

Every rule is exercised three ways — a violating fixture, a clean fixture,
and a suppressed fixture.  Fixture projects are written to ``tmp_path``
(never committed) so the repository's own run stays clean even though
these strings spell out the violations.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import LintEngine, LintResult


def make_project(tmp_path: Path, files: dict[str, str]) -> Path:
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "fixture"\n', encoding="utf-8"
    )
    for relative, content in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return tmp_path


def lint(root: Path, *rules: str) -> LintResult:
    return LintEngine(root=root, select=list(rules) or None).run()


class TestDeterminismRule:
    def test_flags_stdlib_random_and_global_numpy(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/app.py": """
                import random
                import numpy as np

                def draw():
                    return random.random() + np.random.rand()
                """
            },
        )
        result = lint(project, "RPR001")
        assert len(result.findings) == 2
        assert all(finding.rule == "RPR001" for finding in result.findings)
        assert all("unseeded randomness" in f.message for f in result.findings)

    def test_flags_wall_clock_read(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/app.py": """
                import time

                def stamp():
                    return time.perf_counter()
                """
            },
        )
        result = lint(project, "RPR001")
        assert len(result.findings) == 1
        assert "wall-clock read" in result.findings[0].message

    def test_only_the_telemetry_layer_may_read_clocks(self, tmp_path):
        source = """
        import time

        def measure():
            return time.perf_counter()
        """
        project = make_project(
            tmp_path,
            {"src/repro/telemetry/clock.py": source, "src/repro/clock.py": source},
        )
        findings = lint(project, "RPR001").findings
        assert [finding.path for finding in findings] == ["src/repro/clock.py"]

    def test_seeded_default_rng_is_clean_unseeded_is_not(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/app.py": """
                import numpy as np

                def seeded(seed):
                    return np.random.default_rng(seed)

                def unseeded():
                    return np.random.default_rng()
                """
            },
        )
        result = lint(project, "RPR001")
        assert len(result.findings) == 1
        assert result.findings[0].line == 8  # only the zero-argument form

    def test_suppression_silences_the_finding(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/app.py": """
                import random

                def draw():
                    return random.random()  # repro: allow[RPR001] fixture opt-in
                """
            },
        )
        assert lint(project, "RPR001").findings == []


class TestTelemetryNamesRule:
    def test_unregistered_name_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/metrics.py": """
                from repro import telemetry

                def record():
                    tel = telemetry.current()
                    if tel is not None:
                        tel.count("route.batches")
                        tel.count("bogus.metric")
                """
            },
        )
        result = lint(project, "RPR002")
        assert len(result.findings) == 1
        assert "bogus.metric" in result.findings[0].message

    def test_fstring_matches_placeholder_segments(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/metrics.py": """
                from repro import telemetry

                def record(kind):
                    tel = telemetry.current()
                    if tel is not None:
                        tel.count(f"refresh.ops.{kind}")
                        tel.count(f"unknown.family.{kind}")
                """
            },
        )
        result = lint(project, "RPR002")
        assert len(result.findings) == 1
        assert "unknown.family.*" in result.findings[0].message

    def test_non_literal_name_is_flagged_as_unverifiable(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/metrics.py": """
                from repro import telemetry

                def record(name):
                    tel = telemetry.current()
                    if tel is not None:
                        tel.count(name)
                """
            },
        )
        result = lint(project, "RPR002")
        assert len(result.findings) == 1
        assert "not a literal" in result.findings[0].message

    def test_tests_are_out_of_scope_and_suppression_works(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "tests/test_metrics.py": """
                from repro import telemetry

                def test_synthetic():
                    tel = telemetry.current()
                    tel.count("totally.synthetic")
                """,
                "src/metrics.py": """
                from repro import telemetry

                def record():
                    tel = telemetry.current()
                    # repro: allow[RPR002] fixture metric kept off the registry
                    tel.count("fixture.only.metric")
                """,
            },
        )
        assert lint(project, "RPR002").findings == []


class TestTelemetryGuardRule:
    def test_unguarded_session_call_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/mod.py": """
                from repro import telemetry

                def f():
                    tel = telemetry.current()
                    tel.count("route.batches")
                """
            },
        )
        result = lint(project, "RPR003")
        assert len(result.findings) == 1
        assert result.findings[0].rule == "RPR003"

    def test_direct_call_on_fetch_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                from repro import telemetry

                def f():
                    telemetry.current().count("route.batches")
                """
            },
        )
        assert len(lint(project, "RPR003").findings) == 1

    def test_guarded_forms_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/mod.py": """
                from repro import telemetry

                def narrowing_if():
                    tel = telemetry.current()
                    if tel is not None:
                        tel.count("route.batches")

                def early_exit():
                    tel = telemetry.current()
                    if tel is None:
                        return 0
                    tel.count("route.batches")
                    return 1

                def truthiness():
                    tel = telemetry.current()
                    if tel:
                        tel.count("route.batches")
                """
            },
        )
        assert lint(project, "RPR003").findings == []

    def test_outside_hot_packages_is_out_of_scope(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/experiments/mod.py": """
                from repro import telemetry

                def f():
                    tel = telemetry.current()
                    tel.count("route.batches")
                """
            },
        )
        assert lint(project, "RPR003").findings == []


class TestArrayHygieneRule:
    def test_np_append_and_concat_accumulation_are_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/arr.py": """
                import numpy as np

                def grow(xs):
                    out = np.zeros(0)
                    for x in xs:
                        out = np.append(out, x)
                    return out

                def accumulate(parts):
                    acc = np.zeros(0)
                    for part in parts:
                        acc = np.concatenate([acc, part])
                    return acc
                """
            },
        )
        result = lint(project, "RPR005")
        messages = " ".join(finding.message for finding in result.findings)
        assert "np.append" in messages
        assert "quadratic accumulation" in messages

    def test_loop_over_ndarray_local_is_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/arr.py": """
                import numpy as np

                def total():
                    values = np.arange(10)
                    acc = 0
                    for value in values:
                        acc += value
                    return acc
                """
            },
        )
        result = lint(project, "RPR005")
        assert len(result.findings) == 1
        assert "ndarray `values`" in result.findings[0].message

    def test_tolist_iteration_and_error_messages_are_exempt(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/arr.py": """
                import numpy as np

                def ok(arr):
                    for value in arr.tolist():
                        yield value

                def error(arr):
                    raise ValueError(f"bad rows {arr[:5].tolist()}")
                """
            },
        )
        assert lint(project, "RPR005").findings == []

    def test_stray_tolist_flagged_but_suppressible(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/arr.py": """
                def stray(arr):
                    return arr.tolist()

                def justified(arr):
                    # repro: allow[RPR005] fixture needs Python ints
                    return arr.tolist()
                """
            },
        )
        result = lint(project, "RPR005")
        assert len(result.findings) == 1
        assert result.findings[0].line == 3

    def test_outside_fastpath_is_out_of_scope(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/analysis/arr.py": """
                import numpy as np

                def slow(arr):
                    return np.append(arr, 1).tolist()
                """
            },
        )
        assert lint(project, "RPR005").findings == []
