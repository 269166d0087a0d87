"""Unit tests for the static graph builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import (
    DeterministicGraphBuilder,
    RandomGraphBuilder,
    build_ideal_network,
    sample_present_points,
)
from repro.core.metric import RingMetric, TorusMetric


class TestSamplePresentPoints:
    def test_full_presence(self):
        rng = np.random.default_rng(0)
        mask = sample_present_points(100, 1.0, rng)
        assert mask.all()

    def test_partial_presence_fraction(self):
        rng = np.random.default_rng(0)
        mask = sample_present_points(10_000, 0.4, rng)
        assert 0.35 < mask.mean() < 0.45

    def test_at_least_two_present(self):
        rng = np.random.default_rng(0)
        mask = sample_present_points(50, 0.0, rng)
        assert mask.sum() >= 2

    def test_invalid_probability(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_present_points(10, 1.5, rng)


class TestRandomGraphBuilder:
    def test_all_points_occupied_by_default(self):
        result = RandomGraphBuilder(space=RingMetric(64), links_per_node=2, seed=1).build()
        assert len(result.present_labels) == 64
        assert len(result.graph) == 64

    def test_ring_is_wired(self):
        result = RandomGraphBuilder(space=RingMetric(32), links_per_node=1, seed=1).build()
        node = result.graph.node(0)
        assert node.left == 31
        assert node.right == 1

    def test_long_links_at_most_requested(self):
        links = 4
        result = RandomGraphBuilder(space=RingMetric(128), links_per_node=links, seed=2).build()
        for node in result.graph.nodes():
            assert len(node.long_links) <= links

    def test_no_self_links(self):
        result = RandomGraphBuilder(space=RingMetric(64), links_per_node=4, seed=3).build()
        for node in result.graph.nodes():
            assert node.label not in node.long_link_targets()

    def test_no_duplicate_links_by_default(self):
        result = RandomGraphBuilder(space=RingMetric(64), links_per_node=8, seed=4).build()
        for node in result.graph.nodes():
            targets = node.long_link_targets()
            assert len(targets) == len(set(targets))

    def test_partial_presence_links_only_to_present(self):
        builder = RandomGraphBuilder(
            space=RingMetric(256), links_per_node=3, presence_probability=0.3, seed=5
        )
        result = builder.build()
        present = set(result.present_labels)
        for node in result.graph.nodes():
            assert node.label in present
            for target in node.long_link_targets():
                assert target in present

    def test_reproducible_with_same_seed(self):
        first = RandomGraphBuilder(space=RingMetric(64), links_per_node=3, seed=9).build()
        second = RandomGraphBuilder(space=RingMetric(64), links_per_node=3, seed=9).build()
        for label in range(64):
            assert (
                first.graph.node(label).long_link_targets()
                == second.graph.node(label).long_link_targets()
            )

    def test_different_seed_differs(self):
        first = RandomGraphBuilder(space=RingMetric(256), links_per_node=3, seed=1).build()
        second = RandomGraphBuilder(space=RingMetric(256), links_per_node=3, seed=2).build()
        same = all(
            first.graph.node(label).long_link_targets()
            == second.graph.node(label).long_link_targets()
            for label in range(256)
        )
        assert not same

    def test_accepts_another_exponent(self):
        builder = RandomGraphBuilder(
            space=RingMetric(64),
            exponent=2.0,
            links_per_node=2,
            seed=0,
        )
        result = builder.build()
        assert len(result.graph.long_link_lengths()) > 0

    def test_larger_exponent_shortens_long_links(self):
        def mean_length(exponent):
            built = RandomGraphBuilder(
                space=RingMetric(512), exponent=exponent, links_per_node=8, seed=3
            ).build()
            return float(np.mean(built.graph.long_link_lengths()))

        uniform, harmonic, steep = mean_length(0.0), mean_length(1.0), mean_length(2.0)
        # Exponent 0 spreads lengths evenly over 1..n/2 (mean near n/4).
        assert 100 < uniform < 156
        assert uniform > harmonic > steep

    @pytest.mark.parametrize("exponent", [0.0, 2.0])
    def test_partial_presence_at_any_exponent(self, exponent):
        result = RandomGraphBuilder(
            space=RingMetric(256),
            exponent=exponent,
            links_per_node=3,
            presence_probability=0.3,
            seed=8,
        ).build()
        present = set(result.present_labels)
        assert len(result.graph.long_link_lengths()) > 0
        for node in result.graph.nodes():
            targets = node.long_link_targets()
            assert node.label not in targets
            assert set(targets) <= present

    def test_rejects_torus_space(self):
        with pytest.raises(TypeError):
            RandomGraphBuilder(space=TorusMetric(8), links_per_node=1)

    def test_rejects_zero_links(self):
        with pytest.raises(ValueError):
            RandomGraphBuilder(space=RingMetric(64), links_per_node=0)


class TestDeterministicGraphBuilder:
    def test_full_variant_link_count(self):
        builder = DeterministicGraphBuilder(space=RingMetric(64), base=2, variant="full")
        result = builder.build()
        # offsets 1,2,4,8,16,32 bidirectional, but +/-32 coincide and +/-1
        # overlap with nothing; duplicates are collapsed.
        node = result.graph.node(0)
        targets = set(node.long_link_targets())
        assert {1, 2, 4, 8, 16, 32, 63, 62, 60, 56, 48} <= targets

    def test_powers_variant(self):
        builder = DeterministicGraphBuilder(space=RingMetric(81), base=3, variant="powers")
        result = builder.build()
        targets = set(result.graph.node(0).long_link_targets())
        assert {1, 3, 9, 27} <= targets

    def test_rejects_torus(self):
        with pytest.raises(TypeError):
            DeterministicGraphBuilder(space=TorusMetric(4), base=2)

    @pytest.mark.parametrize("variant", ["full", "powers"])
    def test_links_are_the_scheme_neighbors(self, variant):
        builder = DeterministicGraphBuilder(space=RingMetric(81), base=3, variant=variant)
        graph = builder.build().graph
        for label in range(81):
            expected = list(dict.fromkeys(builder.offsets_scheme.neighbors(label)))
            assert graph.node(label).long_link_targets() == expected


class TestBuildIdealNetwork:
    def test_default_links_is_ceil_log2(self):
        result = build_ideal_network(1024, seed=0)
        assert result.links_per_node == 10

    def test_explicit_links(self):
        result = build_ideal_network(128, links_per_node=3, seed=0)
        assert result.links_per_node == 3

    def test_graph_size(self):
        result = build_ideal_network(256, seed=0)
        assert len(result.graph) == 256

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_ideal_network(0)

    def test_link_length_distribution_favours_short(self):
        result = build_ideal_network(512, links_per_node=8, seed=1)
        lengths = result.graph.long_link_lengths()
        short = sum(1 for length in lengths if length <= 8)
        long = sum(1 for length in lengths if length > 128)
        assert short > long
