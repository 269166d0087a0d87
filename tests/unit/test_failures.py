"""Unit tests for the failure models."""

from __future__ import annotations

import pytest

from repro.core import failures
from repro.core.builder import build_ideal_network
from repro.core.failures import (
    ByzantineBehavior,
    ByzantineModel,
    LinkFailureModel,
    NodeFailureModel,
    failure_sweep_levels,
)


class TestLinkFailureModel:
    def test_all_links_survive_at_p1(self, ideal_network_256):
        graph = ideal_network_256.graph
        model = LinkFailureModel(1.0, seed=0)
        summary = model.apply(graph)
        assert summary["failed_links"] == 0

    def test_all_links_fail_at_p0(self, ideal_network_256):
        graph = ideal_network_256.graph
        model = LinkFailureModel(0.0, seed=0)
        summary = model.apply(graph)
        assert summary["failed_links"] == summary["total_long_links"]
        model.repair(graph)

    def test_expected_fraction_fails(self, ideal_network_1024):
        graph = ideal_network_1024.graph
        model = LinkFailureModel(0.7, seed=1)
        summary = model.apply(graph)
        fraction_alive = 1 - summary["failed_links"] / summary["total_long_links"]
        assert 0.65 < fraction_alive < 0.75
        model.repair(graph)

    def test_short_links_untouched(self, ideal_network_256):
        graph = ideal_network_256.graph
        model = LinkFailureModel(0.0, seed=2)
        model.apply(graph)
        node = graph.node(0)
        assert node.left is not None and node.right is not None
        model.repair(graph)

    def test_repair_restores_links(self, ideal_network_256):
        graph = ideal_network_256.graph
        before = len(graph.long_link_lengths())
        model = LinkFailureModel(0.5, seed=3)
        model.apply(graph)
        assert len(graph.long_link_lengths()) < before
        model.repair(graph)
        assert len(graph.long_link_lengths()) == before

    def test_repair_survives_concurrent_mutation(self, ideal_network_256):
        """Repair restores by (holder, target) lookup, so a link removed (or a
        holder departed) between apply and repair is skipped — it does not
        shift which other links get revived."""
        graph = ideal_network_256.graph
        model = LinkFailureModel(0.5, seed=4)
        model.apply(graph)
        failed = list(model._failed)
        assert len(failed) >= 3
        # Pick victims whose (holder, target) pair is unique in the failed
        # set, so "the others were restored" is unambiguous.
        unique = [pair for pair in failed if failed.count(pair) == 1]
        gone_holder, gone_target = unique[0]
        departed = next(holder for holder, _ in unique[1:] if holder != gone_holder)
        graph.remove_long_link(gone_holder, gone_target)
        graph.remove_node(departed)
        model.repair(graph)
        for holder, target in failed:
            if holder == departed or target == departed:
                continue
            if (holder, target) == (gone_holder, gone_target):
                continue
            assert any(
                link.target == target and link.alive
                for link in graph.node(holder).long_links
            ), (holder, target)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            LinkFailureModel(1.5)


class TestLinkFailureStream:
    """``LinkFailureModel.apply`` draws once, as the per-link loop it replaced."""

    @staticmethod
    def _scalar_apply(graph, presence_probability, rng):
        failed = []
        for node in graph.nodes():
            for link in node.long_links:
                if rng.random() >= presence_probability:
                    if graph.fail_long_link(node.label, link.target):
                        failed.append((node.label, link.target))
        return failed

    @staticmethod
    def _graph(nodes, seed):
        graph = build_ideal_network(nodes, seed=seed).graph
        labels = sorted(graph.labels())
        if len(labels) > 4:
            # A parallel link and an already failed one.
            first = graph.node(labels[0]).long_links[0].target
            graph.add_long_link(labels[0], first)
            graph.fail_long_link(labels[1], graph.node(labels[1]).long_links[0].target)
        return graph

    @pytest.mark.parametrize("nodes", [2, 3, 64, 300])
    @pytest.mark.parametrize("presence", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_the_per_link_loop(self, nodes, presence, seed, monkeypatch):
        spawn_rng = failures.spawn_rng
        generators = []

        def recording_spawn_rng(*args):
            generators.append(spawn_rng(*args))
            return generators[-1]

        monkeypatch.setattr(failures, "spawn_rng", recording_spawn_rng)
        graph, reference = self._graph(nodes, seed), self._graph(nodes, seed)
        model = LinkFailureModel(presence, seed=seed)
        summary = model.apply(graph)
        reference_rng = spawn_rng(seed, "link-failures")
        expected = self._scalar_apply(reference, presence, reference_rng)
        assert model._failed == expected
        assert summary["failed_links"] == len(expected)
        assert summary["total_long_links"] == sum(
            len(node.long_links) for node in reference.nodes()
        )
        assert generators[0].bit_generator.state == reference_rng.bit_generator.state
        for node, twin in zip(graph.nodes(), reference.nodes()):
            assert [link.alive for link in node.long_links] == [
                link.alive for link in twin.long_links
            ]


class TestNodeFailureModel:
    def test_fraction_mode_exact_count(self, ideal_network_256):
        graph = ideal_network_256.graph
        model = NodeFailureModel(0.25, seed=0)
        summary = model.apply(graph)
        assert summary["failed_nodes"] == round(0.25 * 256)
        model.repair(graph)

    def test_repair_revives(self, ideal_network_256):
        graph = ideal_network_256.graph
        model = NodeFailureModel(0.5, seed=3)
        model.apply(graph)
        assert graph.alive_count() < 256
        model.repair(graph)
        assert graph.alive_count() == 256

    def test_failed_labels_accessor(self, ideal_network_256):
        graph = ideal_network_256.graph
        model = NodeFailureModel(0.1, seed=4)
        summary = model.apply(graph)
        assert len(model.failed_labels) == summary["failed_nodes"]
        model.repair(graph)

    def test_zero_level_fails_nothing(self, ideal_network_256):
        graph = ideal_network_256.graph
        model = NodeFailureModel(0.0, seed=5)
        summary = model.apply(graph)
        assert summary["failed_nodes"] == 0

    def test_deterministic_given_seed(self, ideal_network_256):
        graph = ideal_network_256.graph
        first = NodeFailureModel(0.3, seed=7)
        first.apply(graph)
        labels_first = set(first.failed_labels)
        first.repair(graph)
        second = NodeFailureModel(0.3, seed=7)
        second.apply(graph)
        labels_second = set(second.failed_labels)
        second.repair(graph)
        assert labels_first == labels_second


class TestByzantineModel:
    def test_marks_fraction(self, ideal_network_256):
        graph = ideal_network_256.graph
        model = ByzantineModel(0.1, seed=0)
        summary = model.apply(graph)
        assert summary["compromised_nodes"] == round(0.1 * 256)
        assert all(graph.is_alive(label) for label in model.compromised)
        model.repair(graph)
        assert not model.compromised

    def test_invalid_behavior(self):
        with pytest.raises(ValueError):
            ByzantineModel(0.1, behavior="explode")

    def test_behaviors_enumerated(self):
        assert set(ByzantineBehavior.ALL) == {"drop", "misroute", "random"}


class TestFailureSweepLevels:
    def test_default_sweep(self):
        levels = failure_sweep_levels()
        assert levels[0] == 0.0
        assert levels[-1] == 0.8
        assert len(levels) == 9

    def test_custom_sweep(self):
        levels = failure_sweep_levels(maximum=0.9, step=0.3)
        assert levels == [0.0, 0.3, 0.6, 0.9]
