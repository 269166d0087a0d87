"""Unit tests for the simulation package: the latency model and workload generators."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from repro.simulation.latency import LogNormalLatency
from repro.simulation.workload import ChurnWorkload, LookupWorkload


class TestLatencyModels:
    def test_lognormal_positive(self):
        model = LogNormalLatency(median=1.0, sigma=0.5, seed=1)
        samples = [model.sample(0, 1) for _ in range(200)]
        assert all(s > 0 for s in samples)


class TestWorkloads:
    def test_lookup_pairs_are_live_and_distinct(self):
        workload = LookupWorkload(seed=0)
        pairs = workload.pairs([1, 2, 3, 4, 5], 50)
        assert len(pairs) == 50
        for source, target in pairs:
            assert source in (1, 2, 3, 4, 5)
            assert target in (1, 2, 3, 4, 5)
            assert source != target

    def test_lookup_pairs_require_two_nodes(self):
        with pytest.raises(ValueError):
            LookupWorkload().pairs([1], 5)

    def test_zipf_keys(self):
        # The class lives in the one example that uses it.
        example = Path(__file__).parents[2] / "examples" / "file_sharing.py"
        popularity = runpy.run_path(str(example))["ZipfKeyPopularity"](
            universe=50, alpha=1.0, seed=2
        )
        keys = popularity.sample_keys(500)
        assert len(keys) == 500
        # The most popular key should appear more often than a mid-rank key.
        assert keys.count("key-0") > keys.count("key-30")
        assert len(popularity.all_keys()) == 50

    def test_churn_schedule_consistency(self):
        churn = ChurnWorkload(space_size=256, join_rate=2.0, leave_rate=1.0, seed=3)
        members = set(range(0, 256, 8))
        events = churn.schedule(duration=50.0, initial_members=sorted(members))
        assert events, "expected at least one churn event"
        for event in events:
            assert event.action in ("join", "leave", "crash")
            if event.action == "join":
                assert event.address not in members
                members.add(event.address)
            else:
                assert event.address in members
                members.discard(event.address)
