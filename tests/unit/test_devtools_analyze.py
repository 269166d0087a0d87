"""Per-id fixture projects for the dtype dataflow rule of ``repro check``.

Every RPA1xx id is exercised three ways — a violating fixture, a clean
fixture, and a suppressed fixture — plus a unit suite for the promotion
model.  Fixture projects are written to ``tmp_path`` (never committed), in
a package the rule governs, so the repository's own run stays clean even
though these strings spell out the violations.  The engine surface the rule
shares with every other rule is tested in ``test_devtools_engine.py``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import LintEngine, LintResult
from repro.devtools.analyze.values import (
    array_of,
    definitely_widens,
    join,
    narrow_int_only,
    promote_sets,
    scalar_of,
)


def make_project(tmp_path: Path, files: dict[str, str]) -> Path:
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "fixture"\n', encoding="utf-8"
    )
    for relative, content in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return tmp_path


def analyze(root: Path, *checks: str) -> LintResult:
    return LintEngine(root=root, select=list(checks) or None).run()


class TestSilentUpcast:
    def test_flags_mixed_width_binop(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def combine():
                    narrow = np.zeros(8, dtype=np.int32)
                    wide = np.zeros(8, dtype=np.int64)
                    return narrow + wide
                """
            },
        )
        result = analyze(project, "RPA101")
        assert len(result.findings) == 1
        assert result.findings[0].rule == "RPA101"
        assert "silently widens" in result.findings[0].message

    def test_flags_narrow_int_reduction_without_dtype(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def count():
                    ranks = np.zeros(8, dtype=np.int16)
                    return ranks.cumsum()
                """
            },
        )
        result = analyze(project, "RPA101")
        assert len(result.findings) == 1
        assert "intp" in result.findings[0].message

    def test_same_width_binop_and_pinned_reduction_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def combine():
                    a = np.zeros(8, dtype=np.int32)
                    b = np.ones(8, dtype=np.int32)
                    pinned = a.cumsum(dtype=np.int64)
                    counted = (a > 0).sum()  # bool reduction is idiomatic
                    return a + b, pinned, counted
                """
            },
        )
        assert analyze(project, "RPA101").findings == []

    def test_weak_python_scalar_never_fires(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def shift():
                    a = np.zeros(8, dtype=np.int32)
                    return a + 1
                """
            },
        )
        assert analyze(project, "RPA101").findings == []

    def test_suppressed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def combine():
                    narrow = np.zeros(8, dtype=np.int32)
                    wide = np.zeros(8, dtype=np.int64)
                    return narrow + wide  # repro: allow[RPA101] deliberate widen
                """
            },
        )
        assert analyze(project, "RPA101").findings == []

    def test_summary_propagates_across_calls(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def narrow():
                    return np.zeros(8, dtype=np.int64).astype(np.int32)

                def combine():
                    wide = np.zeros(8, dtype=np.int64)
                    return narrow() + wide
                """
            },
        )
        result = analyze(project, "RPA101")
        assert len(result.findings) == 1


class TestContractMismatch:
    def test_flags_off_contract_constructor_kwarg(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np
                from repro.fastpath.snapshot import FastpathSnapshot

                def build():
                    return FastpathSnapshot(
                        space_size=64,
                        labels=np.zeros(4, dtype=np.int16),
                        alive=np.ones(4, dtype=bool),
                        neighbor_indptr=np.zeros(5, dtype=np.int64),
                        neighbor_indices=np.zeros(0, dtype=np.int32),
                    )
                """
            },
        )
        result = analyze(project, "RPA102")
        assert len(result.findings) == 1
        assert "labels" in result.findings[0].message
        assert "int16" in result.findings[0].message

    def test_flags_off_contract_mirror_store(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def rewire(mirror):
                    mirror._left = np.zeros(4, dtype=np.float64)
                """
            },
        )
        result = analyze(project, "RPA102")
        assert len(result.findings) == 1
        assert "_left" in result.findings[0].message

    def test_contract_dtypes_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np
                from repro.fastpath.snapshot import FastpathSnapshot

                def build():
                    return FastpathSnapshot(
                        space_size=64,
                        labels=np.zeros(4, dtype=np.int32),
                        alive=np.ones(4, dtype=bool),
                        neighbor_indptr=np.zeros(5, dtype=np.int64),
                        neighbor_indices=np.zeros(0, dtype=np.int32),
                    )
                """
            },
        )
        assert analyze(project, "RPA102").findings == []

    def test_suppressed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def rewire(mirror):
                    # repro: allow[RPA102] fixture intentionally off-contract
                    mirror._left = np.zeros(4, dtype=np.float64)
                """
            },
        )
        assert analyze(project, "RPA102").findings == []


class TestDefaultDtypeConstructor:
    def test_flags_bare_constructors(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def build():
                    return np.zeros(8), np.arange(8), np.array([1, 2, 3])
                """
            },
        )
        result = analyze(project, "RPA103")
        assert len(result.findings) == 3
        assert all(finding.rule == "RPA103" for finding in result.findings)

    def test_explicit_dtype_and_array_passthrough_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def build(existing):
                    a = np.zeros(8, dtype=np.int64)
                    b = np.asarray(a)        # array pass-through keeps its dtype
                    c = np.asarray(existing) # unknown operand: no definite fact
                    return a, b, c
                """
            },
        )
        assert analyze(project, "RPA103").findings == []

    def test_suppressed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def build():
                    return np.zeros(8)  # repro: allow[RPA103] float64 intended
                """
            },
        )
        assert analyze(project, "RPA103").findings == []


class TestMixedConcat:
    def test_flags_mixed_width_concatenate(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def splice():
                    head = np.zeros(4, dtype=np.int32)
                    tail = np.zeros(4, dtype=np.int64)
                    return np.concatenate([head, tail])
                """
            },
        )
        result = analyze(project, "RPA104")
        assert len(result.findings) == 1
        assert "widest" in result.findings[0].message

    def test_matching_widths_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def splice():
                    head = np.zeros(4, dtype=np.int32)
                    tail = np.ones(4, dtype=np.int32)
                    return np.concatenate([head, tail])
                """
            },
        )
        assert analyze(project, "RPA104").findings == []

    def test_suppressed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/fastpath/app.py": """
                import numpy as np

                def splice():
                    head = np.zeros(4, dtype=np.int32)
                    tail = np.zeros(4, dtype=np.int64)
                    # repro: allow[RPA104] promotion wanted here
                    return np.concatenate([head, tail])
                """
            },
        )
        assert analyze(project, "RPA104").findings == []


class TestPromotionModel:
    def test_promote_sets_matches_numpy(self):
        assert promote_sets(frozenset({"int32"}), frozenset({"int64"})) == frozenset(
            {"int64"}
        )
        assert promote_sets(frozenset({"int32"}), frozenset({"float64"})) == frozenset(
            {"float64"}
        )
        assert promote_sets(
            frozenset({"int32", "int64"}), frozenset({"int32"})
        ) == frozenset({"int32", "int64"})

    def test_promote_sets_unknown_side_is_unknown(self):
        assert promote_sets(frozenset(), frozenset({"int64"})) == frozenset()

    def test_definitely_widens_requires_every_pair_to_differ(self):
        assert definitely_widens(frozenset({"int32"}), frozenset({"int64"}))
        # The parametric contract set {int32, int64} shares a width with
        # int64, so the combination is not *definitely* widening.
        assert not definitely_widens(
            frozenset({"int32", "int64"}), frozenset({"int64"})
        )
        assert not definitely_widens(frozenset({"float64"}), frozenset({"int32"}))
        assert not definitely_widens(frozenset(), frozenset({"int64"}))

    def test_narrow_int_only_excludes_bool_and_int64(self):
        assert narrow_int_only(frozenset({"int16", "int32"}))
        assert not narrow_int_only(frozenset({"bool"}))
        assert not narrow_int_only(frozenset({"int32", "int64"}))
        assert not narrow_int_only(frozenset())

    def test_join_loses_one_sided_knowledge(self):
        joined = join(array_of("int32"), array_of())
        assert joined.kind == "array"
        assert joined.dtypes == frozenset()
        assert join(array_of("int32"), scalar_of("int32")).kind == "unknown"
        both = join(array_of("int32"), array_of("int64"))
        assert both.dtypes == frozenset({"int32", "int64"})
