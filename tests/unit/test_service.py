"""Unit tests for the sustained mixed-traffic ``service`` scenario."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.scenarios import Sweep, run
from repro.scenarios.service import build_service_schedule, service_spec
from repro.scenarios.spec import SpecError
from repro.simulation.workload import ChurnWorkload


def _event(time: float) -> SimpleNamespace:
    return SimpleNamespace(time=time)


class TestBuildServiceSchedule:
    def test_pure_function_of_arguments(self):
        events = [_event(0.1), _event(0.6), _event(1.4)]
        first = build_service_schedule(2, 2, 2, events)
        second = build_service_schedule(2, 2, 2, list(events))
        assert first == second

    def test_deterministic_under_fixed_seed(self):
        def schedule():
            workload = ChurnWorkload(
                space_size=512, join_rate=4.0, leave_rate=4.0,
                crash_fraction=0.5, seed=17,
            )
            events = workload.schedule(
                duration=3.0, initial_members=list(range(0, 512, 4))
            )
            return build_service_schedule(3, 4, 2, events)

        assert schedule() == schedule()

    def test_interleave_shape(self):
        schedule = build_service_schedule(2, 2, 2, [_event(0.0), _event(0.9)])
        # Burst slots: event@0.0 -> slot 0, event@0.9 -> slot 1; repair on
        # every second burst; a lookup closes every burst.
        assert schedule == [
            ("churn", 0, 0, (schedule[0][3][0],)),
            ("lookup", 0, 0),
            ("churn", 0, 1, (schedule[2][3][0],)),
            ("repair", 0, 1),
            ("lookup", 0, 1),
            ("lookup", 1, 0),
            ("repair", 1, 1),
            ("lookup", 1, 1),
        ]

    def test_out_of_range_events_clamped(self):
        schedule = build_service_schedule(1, 2, 3, [_event(-1.0), _event(9.9)])
        churn_ops = [op for op in schedule if op[0] == "churn"]
        assert [(op[1], op[2]) for op in churn_ops] == [(0, 0), (0, 1)]

    @pytest.mark.parametrize(
        "rounds,bursts,repair", [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    )
    def test_invalid_arguments_rejected(self, rounds, bursts, repair):
        with pytest.raises(SpecError):
            build_service_schedule(rounds, bursts, repair, [])


class TestServiceScenario:
    SMALL = dict(nodes=256, rounds=2, bursts_per_round=2, searches=10, seed=3)

    def test_engines_report_identical_tables(self):
        object_run = run(service_spec(engine="object", **self.SMALL))
        fastpath_run = run(service_spec(engine="fastpath", **self.SMALL))
        assert object_run.engine_used == "object"
        assert fastpath_run.engine_used == "fastpath"
        assert (
            object_run.to_json_dict()["tables"]
            == fastpath_run.to_json_dict()["tables"]
        )

    def test_same_spec_reproduces(self):
        first = run(service_spec(**self.SMALL))
        again = run(service_spec(**self.SMALL))
        assert first.to_json_dict()["tables"] == again.to_json_dict()["tables"]

    def test_summary_table_aggregates_rounds(self):
        result = run(service_spec(**self.SMALL))
        per_round, summary = result.tables[0], result.tables[1]
        lookups = sum(row[6] for row in per_round.rows)
        assert summary.rows[0][1] == lookups
        assert summary.rows[0][0] == self.SMALL["rounds"]

    def test_occupancy_validated(self):
        spec = service_spec(**self.SMALL)
        bad = replace(spec, extras={**dict(spec.extras), "occupancy": 2.0})
        with pytest.raises(SpecError, match="occupancy"):
            run(bad)

    def test_repair_cadence_validated(self):
        spec = service_spec(**self.SMALL)
        bad = replace(spec, extras={**dict(spec.extras), "repair_every": 0})
        with pytest.raises(SpecError, match="repair_every"):
            run(bad)

    def test_fastpath_telemetry_counters(self):
        # ``collect_telemetry=True`` runs the scenario inside its own session
        # and attaches the dump to the result; an already-active outer session
        # would instead absorb the counters (the path bench/run.py takes).
        result = run(
            service_spec(engine="fastpath", **self.SMALL),
            collect_telemetry=True,
        )
        dump = result.telemetry
        counters = dump["counters"]
        assert counters.get("service.rounds", 0) == self.SMALL["rounds"]
        assert counters.get("service.lookups", 0) > 0
        assert "service.refresh_ops" in counters
        assert any(name.startswith("route.") for name in counters)
        assert "service.lookup_ms" in dump["histograms"]
        assert dump["gauges"]["service.qps"]["value"] > 0
        # One set-up path for every round-based scenario: service records the
        # same phase spans as churn.
        assert {"build", "compile", "refresh", "repair", "route"} <= set(dump["spans"])

    def test_sweep_serial_equals_parallel(self):
        sweep = Sweep(
            "service",
            grid={
                "engine": ["object", "fastpath"],
                "failures.levels": ["0.01", "0.05"],
            },
            base={
                "topology.nodes": 256,
                "workload.searches": 10,
                "extras.rounds": 2,
                "extras.bursts_per_round": 2,
            },
            master_seed=11,
        )
        serial = sweep.run(jobs=1)
        parallel = sweep.run(jobs=2)
        assert serial.to_json() == parallel.to_json()
        assert len(serial.cells) == 4
