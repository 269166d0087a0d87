"""Unit tests for the fault-schedule injection layer (repro.faults)."""

from __future__ import annotations

import pytest

from repro.baselines.chord import ChordNetwork
from repro.core.builder import build_ideal_network
from repro.faults import (
    EVENT_KINDS,
    FaultDriver,
    FaultEvent,
    FaultSchedule,
    degradation_schedule,
    random_schedule,
)
from repro.fastpath import DeltaRecorder, DeltaSnapshot, compile_snapshot
from repro.fastpath.delta import assert_snapshots_identical
from repro.telemetry.core import session as telemetry_session


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault event kind"):
            FaultEvent("meteor")

    def test_level_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", level=1.5)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            FaultEvent("targeted", count=-1)

    def test_every_documented_kind_constructs(self):
        for kind in EVENT_KINDS:
            FaultEvent(kind, level=0.1, count=1)


class TestFaultSchedule:
    def test_len_and_iteration(self):
        schedule = FaultSchedule(
            events=(FaultEvent("crash", level=0.1), FaultEvent("repair")), seed=3
        )
        assert len(schedule) == 2
        assert [event.kind for event in schedule] == ["crash", "repair"]

    def test_event_rng_is_deterministic_and_per_event(self):
        schedule = FaultSchedule(
            events=(FaultEvent("crash", level=0.1), FaultEvent("crash", level=0.1)),
            seed=11,
        )
        again = FaultSchedule(events=schedule.events, seed=11)
        assert schedule.event_rng(0).random() == again.event_rng(0).random()
        # Different event indices draw from independent streams.
        assert schedule.event_rng(0).random() != schedule.event_rng(1).random()

    def test_degradation_schedule_shape(self):
        schedule = degradation_schedule(0.2, seed=5)
        kinds = [event.kind for event in schedule]
        assert kinds == [
            "link_fail", "crash", "targeted", "region_fail", "stabilize", "repair",
        ]
        assert schedule.events[0].level == 0.2
        assert schedule.events[2].count >= 1

    def test_degradation_schedule_without_stabilize(self):
        kinds = [e.kind for e in degradation_schedule(0.1, include_stabilize=False)]
        assert "stabilize" not in kinds
        assert kinds[-1] == "repair"

    def test_random_schedule_is_seed_deterministic(self):
        assert random_schedule(9, length=10) == random_schedule(9, length=10)
        assert random_schedule(9, length=10) != random_schedule(10, length=10)


class TestFaultDriverGraph:
    @pytest.fixture
    def build(self):
        return build_ideal_network(128, seed=3)

    def test_mirror_stays_field_identical(self, build):
        mirror = DeltaSnapshot.from_graph(build.graph)
        recorder = DeltaRecorder.attach(build.graph)

        def check(index, event, entry):
            mirror.apply(recorder.drain())
            assert_snapshots_identical(
                mirror.snapshot(), compile_snapshot(build.graph),
                context=f"{event.kind}@{index}",
            )

        report = FaultDriver(build, random_schedule(5, length=10), on_event=check).run()
        assert len(report["events"]) == 10

    def test_replay_is_deterministic(self):
        schedule = random_schedule(7, length=8)
        reports = []
        for _ in range(2):
            build = build_ideal_network(96, seed=2)
            reports.append(FaultDriver(build, schedule).run())
        assert reports[0] == reports[1]

    def test_reuses_attached_recorder(self, build):
        # The driver only calls the graph's mutators: whatever observer the
        # caller attached records them, and is still attached afterwards.
        recorder = DeltaRecorder.attach(build.graph)
        mirror = DeltaSnapshot.from_graph(build.graph)
        FaultDriver(
            build, FaultSchedule(events=(FaultEvent("crash", level=0.2),), seed=1)
        ).run()
        assert build.graph.observer is recorder
        mirror.apply(recorder.drain())
        assert_snapshots_identical(mirror.snapshot(), compile_snapshot(build.graph))

    def test_targeted_attacks_highest_degree_nodes(self, build):
        graph = build.graph
        ranked = sorted(
            graph.labels(only_alive=True),
            key=lambda label: (-graph.node(label).out_degree(), label),
        )
        report = FaultDriver(
            build, FaultSchedule(events=(FaultEvent("targeted", count=3),), seed=1)
        ).run()
        assert report["events"][0]["failed_nodes"] == 3
        assert all(not graph.is_alive(label) for label in ranked[:3])

    def test_byzantine_is_report_only(self, build):
        graph = build.graph
        before = compile_snapshot(graph)
        report = FaultDriver(
            build,
            FaultSchedule(events=(FaultEvent("byzantine", level=0.3),), seed=4),
        ).run()
        entry = report["events"][0]
        assert len(entry["compromised"]) > 0
        assert_snapshots_identical(before, compile_snapshot(graph))

    def test_repair_undoes_everything(self, build):
        graph = build.graph
        before = compile_snapshot(graph)
        schedule = FaultSchedule(
            events=(
                FaultEvent("link_fail", level=0.5),
                FaultEvent("crash", level=0.3),
                FaultEvent("region_fail", level=0.25),
                FaultEvent("repair"),
            ),
            seed=6,
        )
        FaultDriver(build, schedule).run()
        assert_snapshots_identical(before, compile_snapshot(graph))

    def test_telemetry_counters(self, build):
        with telemetry_session() as tel:
            FaultDriver(
                build,
                FaultSchedule(
                    events=(FaultEvent("crash", level=0.1), FaultEvent("repair")),
                    seed=2,
                ),
            ).run()
        counters = tel.to_dict()["counters"]
        assert counters["faults.runs"] == 1
        assert counters["faults.events.crash"] == 1
        assert counters["faults.events.repair"] == 1


class TestFaultDriverTable:
    def test_mirror_stays_field_identical_through_stabilize(self):
        overlay = ChordNetwork(bits=6)
        mirror = DeltaSnapshot.from_overlay(overlay)
        recorder = DeltaRecorder.attach(overlay)
        ops: dict[str, int] = {}

        def check(index, event, entry):
            delta = recorder.drain()
            for kind, count in delta.counts().items():
                ops[kind] = ops.get(kind, 0) + count
            mirror.apply(delta)
            assert_snapshots_identical(
                mirror.snapshot(), overlay.compile_snapshot(),
                context=f"{event.kind}@{index}",
            )

        schedule = FaultSchedule(
            events=(
                FaultEvent("link_fail", level=0.3),
                FaultEvent("crash", level=0.2),
                FaultEvent("stabilize"),
                FaultEvent("repair"),
            ),
            seed=9,
        )
        FaultDriver(overlay, schedule, on_event=check).run()
        assert ops.get("link_fail", 0) > 0
        assert ops.get("rebuild", 0) == 1
        # The membership rebuild kept the observer attached.
        assert overlay.observer is recorder

    def test_stabilize_excises_crashed_members(self):
        overlay = ChordNetwork(bits=6)
        FaultDriver(
            overlay,
            FaultSchedule(
                events=(FaultEvent("crash", level=0.25), FaultEvent("stabilize")),
                seed=3,
            ),
        ).run()
        members = overlay.labels(only_alive=False)
        assert len(members) < 64
        assert members == overlay.labels(only_alive=True)

    def test_link_fail_ops_match_entry_counts(self):
        overlay = ChordNetwork(bits=5)
        recorder = DeltaRecorder.attach(overlay)
        report = FaultDriver(
            overlay,
            FaultSchedule(events=(FaultEvent("link_fail", level=0.2),), seed=8),
        ).run()
        entry = report["events"][0]
        assert entry["failed_links"] > 0
        assert recorder.drain().counts() == {"link_fail": entry["failed_links"]}
