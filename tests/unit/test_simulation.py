"""Unit tests for the simulation package: the latency model and workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.routing import RecoveryStrategy
from repro.scenarios.rounds import RoundParameters, query_latencies
from repro.simulation.latency import LogNormalLatency
from repro.simulation.workload import ChurnWorkload, LookupWorkload
from repro.util.rng import spawn_rng


class TestLatencyModels:
    def test_lognormal_positive(self):
        model = LogNormalLatency(median=1.0, sigma=0.5, seed=1)
        samples = model.sample(200)
        assert samples.shape == (200,)
        assert (samples > 0).all()


class TestStreamExactBatches:
    """The batched draws against the scalar loops they replace.

    ``LookupWorkload.pairs`` relies on how ``Generator.choice(size=2,
    replace=False)`` consumes its stream; if a future NumPy changes that,
    the pair oracle fails and the scenario golden digests stay the
    authority on what the tables must be.
    """

    @pytest.mark.parametrize("n", [2, 3, 17, 512, 70_000])
    @pytest.mark.parametrize("seed", [0, 1, 29, 1234])
    def test_pairs_match_per_pair_choice(self, n, seed):
        labels = list(range(5, 5 + 3 * n, 3))
        array = np.asarray(labels)
        workload = LookupWorkload(seed=seed)
        reference = spawn_rng(seed, "lookup-workload")
        for count in (1, 9, 64):
            expected = []
            for _ in range(count):
                origin, target = reference.choice(array, size=2, replace=False)
                expected.append((int(origin), int(target)))
            assert workload.pairs(labels, count) == expected
        assert workload._rng.bit_generator.state == reference.bit_generator.state

    @staticmethod
    def _scalar_latencies(hops, parameters, seed):
        rng = spawn_rng(seed, "lognormal-latency")
        mu = float(np.log(parameters.latency_median))
        latencies = []
        for hop_count in hops:
            total = 0.0
            for _ in range(hop_count):
                total += float(rng.lognormal(mu, parameters.latency_sigma))
            latencies.append(total)
        return latencies

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_query_latencies_match_per_hop_loop(self, seed):
        parameters = RoundParameters(
            nodes=64, occupied=32, links_per_node=None, rounds=1,
            bursts_per_round=1, repair_every=1, crash_fraction=0.5, searches=1,
            recovery=RecoveryStrategy.BACKTRACK, engine="object",
            latency_median=1.3, latency_sigma=0.9,
        )
        hop_rng = np.random.default_rng(seed)
        # Long queries (> 8 hops) are where pairwise summation would diverge.
        hops = np.concatenate([hop_rng.integers(1, 40, size=300), [1, 9, 64, 17]])
        got = query_latencies(hops, parameters, seed)
        assert got == self._scalar_latencies(hops.tolist(), parameters, seed)
        assert query_latencies(np.array([], dtype=np.int64), parameters, seed) == []


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
