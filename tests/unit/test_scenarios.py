"""Unit tests for the declarative scenario API (spec, registry, run)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import ExperimentTable
from repro.scenarios import (
    DuplicateScenarioError,
    FailureSpec,
    RoutingSpec,
    RunResult,
    ScenarioOutcome,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    UnknownScenarioError,
    WorkloadSpec,
    apply_overrides,
    available_scenarios,
    coerce_override,
    get_scenario,
    parse_assignment,
    parse_scalar,
    register_scenario,
    run,
    unregister_scenario,
)


class TestSpecValidation:
    def test_default_spec_is_valid(self):
        spec = ScenarioSpec(scenario="anything")
        assert spec.engine == "object"

    def test_rejects_tiny_topology(self):
        with pytest.raises(SpecError, match="topology.nodes"):
            ScenarioSpec(scenario="x", topology=TopologySpec(nodes=1))

    def test_rejects_unknown_topology_kind(self):
        with pytest.raises(SpecError, match="topology.kind"):
            ScenarioSpec(scenario="x", topology=TopologySpec(kind="torus-of-doom"))

    def test_rejects_unknown_engine(self):
        with pytest.raises(SpecError, match="engine"):
            ScenarioSpec(scenario="x", engine="gpu")

    def test_rejects_unknown_recovery(self):
        with pytest.raises(SpecError, match="routing.recovery"):
            ScenarioSpec(scenario="x", routing=RoutingSpec(recovery="give-up"))

    def test_rejects_out_of_range_failure_levels(self):
        with pytest.raises(SpecError, match="failures.levels"):
            ScenarioSpec(scenario="x", failures=FailureSpec(levels=(0.5, 1.5)))

    def test_rejects_non_positive_searches(self):
        with pytest.raises(SpecError, match="workload.searches"):
            ScenarioSpec(scenario="x", workload=WorkloadSpec(searches=0))

    def test_rejects_negative_seed(self):
        with pytest.raises(SpecError, match="seed"):
            ScenarioSpec(scenario="x", seed=-1)


class TestSpecOverrides:
    def test_dotted_path_overrides_with_string_coercion(self):
        spec = ScenarioSpec(scenario="x")
        updated = apply_overrides(
            spec,
            {
                "topology.nodes": "4096",
                "routing.recovery": "terminate",
                "failures.levels": "0.1,0.5",
                "engine": "fastpath",
                "seed": "9",
            },
        )
        assert updated.topology.nodes == 4096
        assert updated.routing.recovery == "terminate"
        assert updated.failures.levels == (0.1, 0.5)
        assert updated.engine == "fastpath"
        assert updated.seed == 9
        # The original spec is untouched (frozen dataclasses).
        assert spec.topology.nodes == ScenarioSpec(scenario="x").topology.nodes

    def test_unknown_key_raises(self):
        spec = ScenarioSpec(scenario="x")
        with pytest.raises(SpecError, match="unknown override key"):
            apply_overrides(spec, {"topology.wings": 2})
        with pytest.raises(SpecError, match="unknown override key"):
            apply_overrides(spec, {"warp": 9})

    def test_bad_value_raises(self):
        spec = ScenarioSpec(scenario="x")
        with pytest.raises(SpecError, match="integer"):
            apply_overrides(spec, {"topology.nodes": "many"})

    def test_override_result_is_validated(self):
        spec = ScenarioSpec(scenario="x")
        with pytest.raises(SpecError, match="topology.nodes"):
            apply_overrides(spec, {"topology.nodes": "1"})

    def test_extras_override(self):
        spec = ScenarioSpec(scenario="x", extras={"sizes": (64, 128)})
        updated = apply_overrides(spec, {"extras.sizes": "256,512"})
        assert updated.extra("sizes") == (256, 512)

    def test_undeclared_extras_key_rejected(self):
        # A typo'd extras override must not become a silent no-op.
        spec = ScenarioSpec(scenario="x", extras={"sizes": (64, 128)})
        with pytest.raises(SpecError, match="unknown extras key"):
            apply_overrides(spec, {"extras.size": "256"})

    def test_single_value_coerces_to_one_element_tuple(self):
        spec = ScenarioSpec(scenario="x", extras={"sizes": (64, 128)})
        assert apply_overrides(spec, {"extras.sizes": "256"}).extra("sizes") == (256,)
        assert apply_overrides(spec, {"extras.sizes": 256}).extra("sizes") == (256,)

    def test_coerce_override_canonicalises_cli_strings(self):
        spec = ScenarioSpec(scenario="x")
        assert coerce_override(spec, "topology.nodes", "128") == 128
        assert coerce_override(spec, "topology.nodes", 128) == 128
        assert coerce_override(spec, "engine", "fastpath") == "fastpath"
        # The sweep-grid path refuses an unread field like `--set` does.
        with pytest.raises(SpecError, match="topology.exponent"):
            coerce_override(spec, "topology.exponent", "2")

    def test_parse_helpers(self):
        assert parse_assignment("a.b=3") == ("a.b", "3")
        with pytest.raises(SpecError):
            parse_assignment("no-equals-sign")
        assert parse_scalar("none") is None
        assert parse_scalar("true") is True
        assert parse_scalar("2.5") == 2.5
        assert parse_scalar("chord") == "chord"


class TestSpecSerialisation:
    def test_json_round_trip(self):
        spec = ScenarioSpec(
            scenario="figure6",
            topology=TopologySpec(kind="ideal", nodes=512, links_per_node=6),
            failures=FailureSpec(kind="nodes", levels=(0.0, 0.4)),
            routing=RoutingSpec(recovery="terminate"),
            workload=WorkloadSpec(searches=40),
            engine="fastpath",
            seed=7,
            extras={"strategies": ("terminate",)},
        )
        data = json.loads(json.dumps(spec.to_json_dict()))
        assert ScenarioSpec.from_json_dict(data) == spec


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = {definition.name for definition in available_scenarios()}
        assert {
            "figure5", "figure6", "figure7", "table1",
            "ablation-replacement", "ablation-backtrack", "ablation-exponent",
            "byzantine", "baselines", "churn", "maintenance-cost",
            "degradation",
        } <= names

    def test_churn_scenarios_run_on_both_engines_identically(self):
        """The churn scenarios are engine-agnostic: identical tables."""
        from repro.scenarios import run

        spec = get_scenario("churn").make_spec(
            overrides={"topology.nodes": 128, "workload.searches": 15,
                       "extras.rounds": 2}
        )
        object_run = run(spec)
        fastpath_run = run(spec.with_overrides({"engine": "fastpath"}))
        assert object_run.engine_used == "object"
        assert fastpath_run.engine_used == "fastpath"
        assert [t.to_json_dict() for t in object_run.tables] == [
            t.to_json_dict() for t in fastpath_run.tables
        ]

    def test_churn_scenario_sweeps_every_rate_level(self):
        """failures.levels is the sweep axis: one table per churn rate."""
        from repro.scenarios import run

        spec = get_scenario("churn").make_spec(
            overrides={"topology.nodes": 128, "workload.searches": 10,
                       "extras.rounds": 2, "failures.levels": (0.02, 0.08)}
        )
        result = run(spec)
        assert len(result.tables) == 2
        assert "0.020" in result.tables[0].title
        assert "0.080" in result.tables[1].title

    def test_degradation_scenario_runs_on_both_engines_identically(self):
        """The fault-timeline scenario is engine-agnostic: identical tables."""
        from repro.scenarios import run

        spec = get_scenario("degradation").make_spec(
            overrides={"topology.nodes": 128, "workload.searches": 20,
                       "failures.levels": (0.2,)}
        )
        object_run = run(spec)
        fastpath_run = run(spec.with_overrides({"engine": "fastpath"}))
        assert object_run.engine_used == "object"
        assert fastpath_run.engine_used == "fastpath"
        assert [t.to_json_dict() for t in object_run.tables] == [
            t.to_json_dict() for t in fastpath_run.tables
        ]
        # The schedule rows: healthy baseline + one row per fault event.
        rows = object_run.tables[0].rows
        assert rows[0][1] == "healthy"
        assert [row[1] for row in rows[1:]] == [
            "link_fail", "crash", "targeted", "region_fail", "stabilize", "repair",
        ]

    def test_degradation_scenario_on_table_protocol(self):
        """topology.protocol switches the overlay family (delta-driven fastpath)."""
        from repro.scenarios import run

        spec = get_scenario("degradation").make_spec(
            overrides={"topology.nodes": 64, "topology.protocol": "chord",
                       "workload.searches": 15, "failures.levels": (0.3,),
                       "engine": "fastpath"}
        )
        result = run(spec)
        assert result.engine_used == "fastpath"
        assert "chord" in result.tables[0].title

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(UnknownScenarioError, match="figure5"):
            get_scenario("figure99")

    def test_duplicate_registration_rejected(self):
        defaults = ScenarioSpec(scenario="test-dup")
        try:
            @register_scenario("test-dup", description="first", defaults=defaults)
            def _first(spec):
                return ExperimentTable(title="t", columns=["a"])

            with pytest.raises(DuplicateScenarioError):
                @register_scenario("test-dup", description="second", defaults=defaults)
                def _second(spec):
                    return ExperimentTable(title="t", columns=["a"])
        finally:
            unregister_scenario("test-dup")

    def test_defaults_name_must_match(self):
        with pytest.raises(SpecError, match="registered as"):
            register_scenario(
                "test-mismatch",
                defaults=ScenarioSpec(scenario="someone-else"),
            )

    def test_make_spec_applies_seed_and_overrides(self):
        definition = get_scenario("figure7")
        spec = definition.make_spec(overrides={"topology.nodes": 256}, seed=11)
        assert spec.topology.nodes == 256
        assert spec.seed == 11
        assert definition.defaults.seed == 0


class TestRun:
    def test_run_returns_structured_result(self):
        spec = get_scenario("figure7").make_spec(
            overrides={
                "topology.nodes": 128,
                "workload.searches": 20,
                "workload.iterations": 1,
                "failures.levels": "0.0,0.5",
            }
        )
        result = run(spec)
        assert result.scenario == "figure7"
        assert result.engine_requested == "object"
        assert result.engine_used == "object"
        assert result.seconds > 0
        assert len(result.tables) == 1
        assert "Figure 7" in result.tables[0].title
        assert result.raw is not None

    def test_run_reports_fastpath_engine(self):
        spec = get_scenario("figure7").make_spec(
            overrides={
                "topology.nodes": 128,
                "workload.searches": 20,
                "workload.iterations": 1,
                "routing.recovery": "terminate",
                "engine": "fastpath",
            }
        )
        assert run(spec).engine_used == "fastpath"

    def test_run_reports_fastpath_for_backtracking(self):
        spec = get_scenario("figure7").make_spec(
            overrides={
                "topology.nodes": 128,
                "workload.searches": 20,
                "workload.iterations": 1,
                "routing.recovery": "backtrack",
                "engine": "fastpath",
            }
        )
        result = run(spec)
        assert result.engine_requested == "fastpath"
        assert result.engine_used == "fastpath"

    def test_figure6_all_strategies_run_fastpath(self):
        spec = get_scenario("figure6").make_spec(
            overrides={
                "topology.nodes": 128,
                "workload.searches": 10,
                "failures.levels": "0.4",
                "engine": "fastpath",
            }
        )
        result = run(spec)
        assert result.engine_used == "fastpath"
        for strategy in ("terminate", "random-reroute", "backtrack"):
            assert result.raw.parameters["engine_used"][strategy] == "fastpath"
            assert result.raw.parameters["engines_used_per_level"][strategy] == ["fastpath"]

    def test_run_result_json_round_trip(self):
        spec = get_scenario("figure5").make_spec(
            overrides={"topology.nodes": 64, "workload.networks": 1}
        )
        result = run(spec)
        restored = RunResult.from_json(result.to_json())
        assert restored.spec == result.spec
        assert restored.engine_used == result.engine_used
        assert [t.to_json_dict() for t in restored.tables] == [
            t.to_json_dict() for t in result.tables
        ]
        # Deterministic form (timing excluded) is byte-identical.
        assert restored.to_json(include_timing=False) == result.to_json(include_timing=False)

    def test_custom_scenario_in_twenty_lines(self):
        # The README example: measure mean hops on one intact network.
        from repro.scenarios.rounds import EngineSession, IdealNetwork
        from repro.simulation.workload import LookupWorkload

        try:
            @register_scenario(
                "test-mean-hops",
                description="mean hops on an intact overlay",
                defaults=ScenarioSpec(scenario="test-mean-hops"),
            )
            def _mean_hops(spec):
                network = IdealNetwork(spec.topology.nodes, spec.topology.links_per_node, spec.seed)
                recovery = spec.routing.recovery_strategy()
                with EngineSession(network, spec.engine, recovery, spec.seed) as session:
                    pairs = LookupWorkload(seed=spec.seed + 1).pairs(
                        session.live_labels(), spec.workload.searches
                    )
                    success, hops = session.route(pairs)
                table = ExperimentTable(title="mean hops", columns=["nodes", "mean_hops"])
                table.add_row(spec.topology.nodes, hops[success].mean())
                return ScenarioOutcome(tables=[table], engine_used=session.engine_used)

            result = run(
                get_scenario("test-mean-hops").make_spec(
                    overrides={"topology.nodes": 128, "workload.searches": 20}
                )
            )
            assert result.tables[0].column("mean_hops")[0] > 0
        finally:
            unregister_scenario("test-mean-hops")

    def test_baselines_size_follows_topology_nodes(self):
        spec = get_scenario("baselines").make_spec(
            overrides={"topology.nodes": 64, "workload.searches": 10}
        )
        result = run(spec)
        assert result.tables[0].column("nodes")[0] == 64

    def test_deserialised_result_without_timing_omits_seconds(self):
        spec = get_scenario("figure5").make_spec(
            overrides={"topology.nodes": 64, "workload.networks": 1}
        )
        result = run(spec)
        restored = RunResult.from_json(result.to_json(include_timing=False))
        assert restored.seconds is None
        assert "seconds" not in restored.to_json_dict(include_timing=True)
