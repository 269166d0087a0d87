"""Unit tests for the experiment harness (small, fast configurations)."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

import repro.experiments
from repro.analysis.fitting import fit_log_squared_model, goodness_of_fit_r2
from repro.core.routing import RecoveryStrategy
from repro.experiments.figure5 import empirical_link_distribution
from repro.experiments.runner import ExperimentTable, format_table, measure_mean_hops
from repro.scenarios import get_scenario, run
from repro.scenarios.rounds import EngineSession
from repro.simulation.workload import LookupWorkload


def run_raw(scenario: str, overrides: dict):
    """Run a registered scenario; return its native result object."""
    return run(get_scenario(scenario).make_spec(overrides=overrides)).raw


class TestExperimentTable:
    def test_add_row_and_column(self):
        table = ExperimentTable(title="t", columns=["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("a") == [1, 3]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_add_row_arity_checked(self):
        table = ExperimentTable(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_to_text_contains_title_and_values(self):
        table = ExperimentTable(title="My Table", columns=["x"], notes="note!")
        table.add_row(3.14159)
        text = table.to_text()
        assert "My Table" in text
        assert "3.142" in text
        assert "note!" in text

    def test_format_table_alignment(self):
        text = format_table("T", ["col"], [["value"], ["x"]])
        lines = text.splitlines()
        assert len(lines) >= 4

    def test_json_round_trip(self):
        import numpy as np

        table = ExperimentTable(title="RT", columns=["n", "hops"], notes="note")
        table.add_row(np.int64(64), np.float64(3.5))
        table.add_row(128, 4.25)
        restored = ExperimentTable.from_json(table.to_json())
        assert restored.title == "RT"
        assert restored.columns == ["n", "hops"]
        assert restored.notes == "note"
        assert restored.rows == [[64, 3.5], [128, 4.25]]
        # Serialising again is byte-identical (numpy scalars already native).
        assert restored.to_json() == table.to_json()

    def test_to_csv(self):
        table = ExperimentTable(title="T", columns=["a", "b"])
        table.add_row(1, "x,y")
        text = table.to_csv()
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[1] == '1,"x,y"'


class TestFigure5:
    def test_empirical_distribution_normalised(self):
        histogram = empirical_link_distribution([1, 1, 2, 5], 16)
        assert histogram.sum() == pytest.approx(1.0)
        assert histogram[0] == pytest.approx(0.5)

    def test_empirical_distribution_empty(self):
        histogram = empirical_link_distribution([], 16)
        assert histogram.sum() == 0.0

    def test_run_small(self):
        result = run_raw("figure5", {
            "topology.nodes": 128, "workload.networks": 2,
            "topology.links_per_node": 4, "seed": 0,
        })
        assert result.derived.sum() == pytest.approx(1.0, abs=1e-6)
        assert result.ideal.sum() == pytest.approx(1.0, abs=1e-6)
        assert result.max_absolute_error < 0.08
        assert result.total_variation < 0.25
        table = result.to_table()
        assert "Figure 5" in table.to_text()

    def test_derived_tracks_ideal_shape(self):
        result = run_raw("figure5", {
            "topology.nodes": 256, "workload.networks": 3,
            "topology.links_per_node": 6, "seed": 1,
        })
        # Short links should carry much more mass than long links, as in the
        # ideal 1/d law.
        assert result.derived[0] > result.derived[50]
        # ... and the error against it peaks at short lengths (Figure 5(b)).
        error = abs(result.absolute_error)
        assert error[:8].max() >= error[64:].max()


class TestFigure6:
    def test_run_small(self):
        result = run_raw("figure6", {
            "topology.nodes": 256,
            "workload.searches": 40,
            "failures.levels": (0.0, 0.4),
            "seed": 0,
        })
        assert result.failure_levels == [0.0, 0.4]
        for strategy in ("terminate", "random-reroute", "backtrack"):
            assert len(result.failed_fraction[strategy]) == 2
            # No failures at level 0.
            assert result.failed_fraction[strategy][0] == 0.0
        table_a, table_b = result.to_tables()
        assert "6(a)" in table_a.title and "6(b)" in table_b.title

    def test_golden_numbers_pinned(self):
        """Expected-value pin of the derive_seed-based per-level streams.

        Guards the seed-derivation refactor: any change to how build /
        failure / workload / routing seeds are derived (or to the batched
        link sampling) shows up here as a changed number.  Both engines must
        reproduce these exact values.
        """
        for engine in ("object", "fastpath"):
            result = run_raw("figure6", {
                "topology.nodes": 256,
                "workload.searches": 40,
                "failures.levels": (0.0, 0.4),
                "seed": 0,
                "engine": engine,
            })
            assert result.failed_fraction == {
                "terminate": [0.0, 0.125],
                "random-reroute": [0.0, 0.025],
                "backtrack": [0.0, 0.0],
            }, engine
            assert result.mean_hops["terminate"][0] == pytest.approx(3.2)
            assert result.mean_hops["terminate"][1] == pytest.approx(3.7428571429)
            assert result.mean_hops["random-reroute"][1] == pytest.approx(4.2307692308)
            assert result.mean_hops["backtrack"][1] == pytest.approx(4.625)

    def test_engines_agree_at_fixed_seed(self):
        overrides = {
            "topology.nodes": 256, "workload.searches": 40,
            "failures.levels": (0.0, 0.5), "seed": 4,
        }
        obj = run_raw("figure6", {**overrides, "engine": "object"})
        fast = run_raw("figure6", {**overrides, "engine": "fastpath"})
        assert obj.failed_fraction == fast.failed_fraction
        assert obj.mean_hops == fast.mean_hops

    def test_backtracking_not_worse_than_terminate(self):
        """Figure 6's shape over the paper's whole failure range."""
        levels = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        result = run_raw("figure6", {
            "topology.nodes": 512,
            "workload.searches": 80,
            "failures.levels": levels,
            "seed": 1,
        })
        terminate = result.failed_fraction["terminate"]
        reroute = result.failed_fraction["random-reroute"]
        backtrack = result.failed_fraction["backtrack"]
        # Terminate loses about the failed fraction (paper: fewer than p).
        assert all(failed <= 1.3 * level + 0.05 for level, failed in zip(levels, terminate))
        # Backtracking dominates at every level, by a wide margin from 0.5 on;
        # random re-route sits between the two.
        assert all(b <= t for b, t in zip(backtrack, terminate))
        assert backtrack[5] < 0.5 * max(terminate[5], 0.02) + 0.05
        assert reroute[5] <= terminate[5] + 0.05
        # Searches that backtracking saves take longer than the ones
        # terminate delivers (Figure 6(b)).
        assert result.mean_hops["backtrack"][6] >= result.mean_hops["terminate"][6] - 1.0


    def test_a_level_that_leaves_no_pair_counts_every_lookup_failed(self):
        """``failures.levels=1.0`` is a legal level: its row is all failed."""
        results = [
            run(get_scenario("figure6").make_spec(overrides={
                "topology.nodes": 64,
                "workload.searches": 20,
                "failures.levels": (0.5, 1.0),
                "seed": 3,
                "engine": engine,
            }))
            for engine in ("object", "fastpath")
        ]
        raw = results[0].raw
        for strategy in ("terminate", "random-reroute", "backtrack"):
            assert raw.failed_fraction[strategy][1] == 1.0
            assert raw.mean_hops[strategy][1] == 0.0
            assert raw.failed_fraction[strategy][0] < 1.0
        tables = [[table.to_csv() for table in result.tables] for result in results]
        assert tables[0] == tables[1]


class TestFigure7:
    def test_a_ring_too_small_for_its_levels_runs(self):
        """At 8 nodes the top levels leave fewer than two live nodes."""
        results = [
            run(get_scenario("figure7").make_spec(overrides={
                "topology.nodes": 8,
                "workload.searches": 10,
                "seed": 0,
                "engine": engine,
            }))
            for engine in ("object", "fastpath")
        ]
        raw = results[0].raw
        assert raw.ideal_failed_fraction[-1] == raw.constructed_failed_fraction[-1] == 1.0
        assert raw.ideal_failed_fraction[0] == raw.constructed_failed_fraction[0] == 0.0
        tables = [[table.to_csv() for table in result.tables] for result in results]
        assert tables[0] == tables[1]

    def test_run_small(self):
        result = run_raw("figure7", {
            "topology.nodes": 128,
            "workload.searches": 30,
            "workload.iterations": 1,
            "failures.levels": (0.0, 0.5),
            "seed": 0,
        })
        assert len(result.ideal_failed_fraction) == 2
        assert len(result.constructed_failed_fraction) == 2
        assert result.ideal_failed_fraction[0] == 0.0
        assert result.constructed_failed_fraction[0] == 0.0
        # Both curves rise with the failure probability and stay comparable.
        assert result.ideal_failed_fraction[1] > 0.0
        assert result.constructed_failed_fraction[1] > 0.0
        for constructed, ideal in zip(
            result.constructed_failed_fraction, result.ideal_failed_fraction
        ):
            assert abs(constructed - ideal) < 0.25
        assert "Figure 7" in result.to_table().to_text()

    def test_golden_numbers_pinned(self):
        """Expected-value pin of the derive_seed-based figure7 streams."""
        for engine in ("object", "fastpath"):
            result = run_raw("figure7", {
                "topology.nodes": 128,
                "workload.searches": 30,
                "workload.iterations": 1,
                "failures.levels": (0.0, 0.5),
                "seed": 0,
                "engine": engine,
            })
            assert result.ideal_failed_fraction == pytest.approx([0.0, 1 / 3])
            assert result.constructed_failed_fraction == pytest.approx([0.0, 13 / 30])


class TestTable1:
    def test_measure_mean_hops(self, ideal_network_256):
        with EngineSession(
            ideal_network_256, "object", RecoveryStrategy.BACKTRACK, 0
        ) as session:
            pairs = LookupWorkload(seed=0).pairs(session.live_labels(), 30)
            hops, failed = measure_mean_hops(session, pairs)
        assert hops > 0
        assert failed == 0.0

    def test_run_small(self):
        result = run_raw("table1", {
            "extras.sizes": (64, 128),
            "extras.link_counts": (1, 4),
            "extras.bases": (2, 4),
            "extras.probabilities": (1.0, 0.5),
            "workload.searches": 25,
            "seed": 0,
        })
        tables = result.tables()
        assert len(tables) == 7
        text = result.to_text()
        assert "Table 1 row 1" in text
        # Hops should decrease when links increase (row 2 sweep).
        polylog_hops = result.polylog_links.column("measured_hops")
        assert polylog_hops[-1] < polylog_hops[0]
        links = result.polylog_links.column("links")
        assert polylog_hops[0] / polylog_hops[-1] > 0.25 * (links[-1] / links[0]) ** 0.5
        # Row 3: deterministic base-b hops stay under the log_b n shape and
        # do not grow with the base.
        det_hops = result.deterministic.column("measured_hops")
        for measured, shape in zip(
            det_hops, result.deterministic.column("bound_shape_log_b_n")
        ):
            assert measured <= shape + 2.0
        assert det_hops[0] >= det_hops[-1] - 0.5
        # Rows 4-6: hops grow as links or nodes fail.
        for table in (result.link_failures_random, result.link_failures_deterministic):
            failure_hops = table.column("measured_hops")
            assert failure_hops[-1] > failure_hops[0]
        node_failure_hops = result.node_failures.column("measured_hops")
        assert node_failure_hops[-1] >= node_failure_hops[0] - 0.5
        # Binomial placement does not blow up delivery time.
        single_link_hops = result.single_link.column("measured_hops")
        assert max(result.binomial_nodes.column("measured_hops")) < 4 * max(single_link_hops)

    def test_single_link_scaling_increases_with_n(self):
        result = run_raw("table1", {
            "extras.sizes": (64, 128, 256, 512),
            "extras.link_counts": (1,),
            "extras.bases": (2,),
            "extras.probabilities": (1.0,),
            "workload.searches": 40,
            "seed": 1,
        })
        sizes = result.single_link.column("n")
        hops = result.single_link.column("measured_hops")
        assert hops[-1] > hops[0]
        # Row 1: a * log^2 n + b fits with a positive slope.
        slope, intercept = fit_log_squared_model(sizes, hops)
        predicted = [slope * math.log2(n) ** 2 + intercept for n in sizes]
        assert slope > 0
        assert goodness_of_fit_r2(hops, predicted) > 0.8

    def test_link_failure_rows_take_the_delta_path_on_fastpath(self):
        """Rows 4/5 under engine=fastpath never recompile: the per-level
        tables arrive through edge-liveness delta ops, and the numbers are
        identical to the object engine."""
        from repro.telemetry.core import session as telemetry_session

        overrides = {
            "extras.sizes": (64, 128), "extras.link_counts": (1,), "extras.bases": (2,),
            "extras.probabilities": (0.9, 0.5), "workload.searches": 25, "seed": 2,
        }
        with telemetry_session() as tel:
            fast = run_raw("table1", {**overrides, "engine": "fastpath"})
        counters = tel.to_dict()["counters"]
        assert counters.get("refresh.ops.link_fail", 0) > 0
        assert counters.get("refresh.ops.link_revive", 0) > 0
        obj = run_raw("table1", {**overrides, "engine": "object"})
        for name in ("link_failures_random", "link_failures_deterministic"):
            assert (
                getattr(fast, name).to_json_dict()["rows"]
                == getattr(obj, name).to_json_dict()["rows"]
            ), name


class TestAblations:
    def test_replacement_ablation(self):
        table = run_raw("ablation-replacement", {
            "topology.nodes": 128, "workload.networks": 1,
            "topology.links_per_node": 4, "seed": 0,
        })
        errors = dict(zip(table.column("policy"), table.column("max_absolute_error")))
        assert set(errors) == {"inverse-distance", "oldest-link", "never-replace"}
        # The paper's two replacement policies track the ideal 1/d law, and
        # each other.
        assert errors["inverse-distance"] < 0.1 and errors["oldest-link"] < 0.1
        assert abs(errors["inverse-distance"] - errors["oldest-link"]) < 0.05

    def test_backtrack_depth_ablation(self):
        table = run_raw("ablation-backtrack", {
            "topology.nodes": 256, "extras.depths": (1, 5),
            "failures.levels": (0.4,), "workload.searches": 40, "seed": 0,
        })
        fractions = table.column("failed_fraction")
        assert len(fractions) == 2
        # Depth 5 (the paper's choice) never hurts against depth 1.
        assert fractions[1] <= fractions[0] + 0.02

    def test_exponent_ablation(self):
        table = run_raw("ablation-exponent", {
            "topology.nodes": 256, "extras.exponents": (0.0, 1.0, 2.0),
            "workload.searches": 40, "seed": 0,
        })
        hops = dict(zip(table.column("exponent"), table.column("mean_hops")))
        assert len(hops) == 3
        # Exponent 1 is at least as good as either extreme (the lower bound
        # for bad distributions, seen from below).
        assert hops[1.0] <= hops[0.0] + 0.5
        assert hops[1.0] <= hops[2.0] + 0.5

    def test_byzantine_experiment(self):
        table = run_raw("byzantine", {
            "topology.nodes": 256, "failures.levels": (0.0, 0.2),
            "extras.redundancy": 2, "workload.searches": 30, "seed": 0,
        })
        plain = table.column("plain_failed_fraction")
        redundant = table.column("redundant_failed_fraction")
        assert plain[0] == 0.0 and redundant[0] == 0.0
        assert redundant[1] <= plain[1]


class TestBaselineComparison:
    def test_run_small(self):
        table = run_raw("baselines", {
            "topology.nodes": 1 << 6, "workload.searches": 30,
            "failures.levels": (0.2,), "seed": 0,
        })
        systems = table.column("system")
        assert len(systems) == 5
        assert any("chord" in s for s in systems)
        healthy = table.column("failed_fraction")
        assert all(fraction == 0.0 for fraction in healthy)

    def test_polynomial_can_and_failure_tolerance(self):
        table = run_raw("baselines", {
            "topology.nodes": 256, "workload.searches": 100,
            "failures.levels": (0.3,), "seed": 0,
        })
        systems = table.column("system")
        hops = dict(zip(systems, table.column("mean_hops")))
        degraded = dict(zip(systems, table.column("failed_fraction_after_failures")))
        this_paper = next(s for s in systems if "this-paper" in s)
        can = next(s for s in systems if s.startswith("can"))
        # CAN's O(sqrt n) routing needs clearly more hops than the log systems.
        assert hops[can] > 1.5 * hops[this_paper]
        assert hops[can] > 1.5 * hops["chord"]
        # With backtracking this overlay loses no more searches than any
        # baseline (none of which repairs here).
        assert all(degraded[this_paper] <= degraded[other] + 0.02 for other in systems)


def _imported_names(module: Path) -> set[str]:
    """The last dotted component of every name ``module`` imports, anywhere in it."""
    return {
        alias.name.rpartition(".")[2]
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_experiments_route_only_through_the_engine_session():
    """One engine seam: no experiment module picks a router, fails nodes or builds a snapshot.

    ``byzantine`` is the single exception: its adversarial routers have no
    batch twin, so ``ablations.py`` alone may import them.
    """
    engine_internals = {
        "GreedyRouter",
        "BatchGreedyRouter",
        "NodeFailureModel",
        "DeltaRecorder",
        "DeltaSnapshot",
        "compile_snapshot",
        "build_snapshot",
        "sample_node_failures",
    }
    byzantine_routers = {"ByzantineAwareRouter", "RedundantRouter"}
    modules = sorted(Path(repro.experiments.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    byzantine_importers = set()
    for module in modules:
        imported = _imported_names(module)
        assert not imported & engine_internals, module.name
        if imported & byzantine_routers:
            byzantine_importers.add(module.name)
    assert byzantine_importers == {"ablations.py"}


def test_no_scenario_records_which_engine_a_session_used():
    """The engine that routes is the one asked for: nothing tracks another."""
    source_root = Path(repro.__file__).parent
    modules = [
        module
        for package in ("experiments", "scenarios")
        for module in sorted((source_root / package).glob("*.py"))
    ]
    assert len(modules) >= 16
    retired = {"engines_used", "engines_used_per_level", "select_engine", "FastpathFallbackWarning"}
    holders = set()
    for module in modules:
        names = _identifiers(ast.parse(module.read_text()))
        assert not names & retired, module.name
        if "engine_used" in names:
            holders.add(module.relative_to(source_root).as_posix())
    # RunResult and ScenarioOutcome carry the field; the sweep prints it.
    assert holders == {"scenarios/run.py", "scenarios/sweep.py"}


def test_only_the_session_builds_a_batch_router():
    """Outside the fastpath package, the engine session is the one batch-router factory."""
    source_root = Path(repro.__file__).parent
    importers = {
        module.relative_to(source_root).as_posix()
        for module in sorted(source_root.rglob("*.py"))
        if module.relative_to(source_root).parts[0] != "fastpath"
        and "BatchGreedyRouter" in _imported_names(module)
    }
    assert importers == {"scenarios/rounds.py"}


def test_one_way_a_mutation_reaches_the_mirror():
    """The fault driver cannot see the array engine; only the session holds a mirror."""
    delta_layer = {"DeltaSnapshot", "DeltaRecorder", "SnapshotDelta"}
    source_root = Path(repro.__file__).parent
    modules = sorted(source_root.rglob("*.py"))
    assert len([m for m in modules if m.parent.name == "faults"]) >= 3
    holders = set()
    for module in modules:
        package = module.relative_to(source_root).parts[0]
        if package == "fastpath":
            continue
        imports = [
            node
            for node in ast.walk(ast.parse(module.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        if package == "faults":
            origins = {
                getattr(node, "module", None) or alias.name
                for node in imports
                for alias in node.names
            }
            assert not any(
                origin.startswith("repro.fastpath") for origin in origins
            ), module.name
        if delta_layer & {alias.name for node in imports for alias in node.names}:
            holders.add(module.relative_to(source_root).as_posix())
    assert holders == {"scenarios/rounds.py"}


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a module binds, reads or reaches through an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_the_batch_router_derives_only_the_label_matrix():
    """No dense triple, no liveness fold: the step reads label_matrix() and the CSR."""
    source_root = Path(repro.__file__).parent
    router = ast.parse((source_root / "fastpath" / "batch_router.py").read_text())
    retired = ("routing_matrices", "dense_neighbors", "_usable", "_edge_valid")
    assert "label_matrix" in _identifiers(router)
    assert not [
        name for name in _identifiers(router) if any(old in name for old in retired)
    ]
    # The accessor survives for the benchmark harness only: nothing calls it.
    callers = [
        module.relative_to(source_root).as_posix()
        for module in sorted(source_root.rglob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "routing_matrices"
    ]
    assert callers == []


def test_backtracking_selects_through_the_forward_step():
    """No sort anywhere in the batch router: a revisited row is re-keyed, not ranked."""
    source_root = Path(repro.__file__).parent
    router = ast.parse((source_root / "fastpath" / "batch_router.py").read_text())
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        for node in ast.walk(router)
        if isinstance(node, ast.Call)
    }
    assert not called & {"argsort", "take_along_axis", "put_along_axis"}
    defined = {
        node.name for node in ast.walk(router) if isinstance(node, ast.FunctionDef)
    }
    assert "_backtrack_select_full" not in defined and "_step" in defined
