"""Unit tests for the link distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import (
    DeterministicBaseBOffsets,
    InversePowerLawDistribution,
    harmonic_number,
)


class TestHarmonicNumber:
    def test_small_values_exact(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(2) == pytest.approx(1.5)
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_large_values_close_to_log(self):
        n = 100_000
        assert harmonic_number(n) == pytest.approx(np.log(n) + 0.5772156649, rel=1e-4)

    def test_monotone(self):
        values = [harmonic_number(n) for n in range(1, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestInversePowerLaw:
    def test_link_probability_normalised(self):
        distribution = InversePowerLawDistribution(128)
        total = sum(distribution.link_probability(d) for d in range(1, 65))
        assert total == pytest.approx(1.0)

    def test_probability_decreases_with_distance(self):
        distribution = InversePowerLawDistribution(256)
        assert distribution.link_probability(1) > distribution.link_probability(10)
        assert distribution.link_probability(10) > distribution.link_probability(100)

    def test_probability_zero_outside_range(self):
        distribution = InversePowerLawDistribution(100)
        assert distribution.link_probability(0) == 0.0
        assert distribution.link_probability(51) == 0.0

    def test_sampling_excludes_self(self):
        distribution = InversePowerLawDistribution(64)
        rng = np.random.default_rng(0)
        samples = distribution.sample_neighbors(10, 500, rng)
        assert len(samples) == 500
        assert 10 not in samples
        assert all(0 <= s < 64 for s in samples)

    def test_sampling_respects_presence_mask(self):
        distribution = InversePowerLawDistribution(64)
        rng = np.random.default_rng(1)
        present = np.zeros(64, dtype=bool)
        present[[1, 2, 3, 60]] = True
        samples = distribution.sample_neighbors(0, 200, rng, present=present)
        assert set(samples) <= {1, 2, 3, 60}

    def test_sampling_empirically_favours_short_links(self):
        n = 512
        distribution = InversePowerLawDistribution(n)
        rng = np.random.default_rng(2)
        samples = distribution.sample_neighbors(0, 5000, rng)
        distances = [min(s, n - s) for s in samples]
        short = sum(1 for d in distances if d <= 8)
        long = sum(1 for d in distances if d > 64)
        assert short > long

    def test_zero_count_returns_empty(self):
        distribution = InversePowerLawDistribution(64)
        rng = np.random.default_rng(0)
        assert distribution.sample_neighbors(0, 0, rng) == []

    def test_requires_at_least_two_points(self):
        with pytest.raises(ValueError):
            InversePowerLawDistribution(1)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), float("-inf")])
    def test_requires_a_finite_exponent(self, exponent):
        with pytest.raises(ValueError, match=f"exponent must be finite, got {exponent}"):
            InversePowerLawDistribution(64, exponent=exponent)

    def test_exponent_zero_is_uniform_over_distances(self):
        distribution = InversePowerLawDistribution(100, exponent=0.0)
        assert distribution.link_probability(1) == pytest.approx(
            distribution.link_probability(40)
        )


class TestDeterministicBaseB:
    def test_full_variant_offsets(self):
        scheme = DeterministicBaseBOffsets(n=16, base=2, variant="full")
        assert scheme.offsets() == [1, 2, 4, 8]

    def test_full_variant_base4(self):
        scheme = DeterministicBaseBOffsets(n=64, base=4, variant="full")
        assert scheme.offsets() == [1, 2, 3, 4, 8, 12, 16, 32, 48]

    def test_powers_variant(self):
        scheme = DeterministicBaseBOffsets(n=100, base=3, variant="powers")
        assert scheme.offsets() == [1, 3, 9, 27, 81]

    def test_expected_link_count_bidirectional(self):
        scheme = DeterministicBaseBOffsets(n=16, base=2, variant="full")
        assert scheme.expected_link_count() == 8

    def test_neighbors_are_deterministic_and_symmetric_offsets(self):
        scheme = DeterministicBaseBOffsets(n=64, base=2, variant="powers")
        neighbors = scheme.neighbors(10)
        assert (10 + 1) % 64 in neighbors
        assert (10 - 1) % 64 in neighbors
        assert (10 + 32) % 64 in neighbors

    def test_presence_mask_skips_absent(self):
        scheme = DeterministicBaseBOffsets(n=32, base=2, variant="powers")
        present = np.ones(32, dtype=bool)
        present[11] = False
        neighbors = scheme.neighbors(10, present=present)
        assert 11 not in neighbors

    @pytest.mark.parametrize(
        "n,base,variant",
        [(16, 2, "full"), (64, 4, "full"), (100, 3, "powers"), (81, 3, "powers")],
    )
    def test_neighbors_are_every_offset_in_both_directions(self, n, base, variant):
        scheme = DeterministicBaseBOffsets(n=n, base=base, variant=variant)
        offsets = scheme.offsets()
        for source in (0, 1, n // 2, n - 1):
            expected = {(source + o) % n for o in offsets} | {(source - o) % n for o in offsets}
            neighbors = scheme.neighbors(source)
            assert set(neighbors) == expected - {source}
            # One entry per offset and direction (an antipode appears twice).
            assert len(neighbors) == 2 * len(offsets)

    def test_one_directional_scheme_links_forward_only(self):
        scheme = DeterministicBaseBOffsets(n=64, base=2, variant="powers", bidirectional=False)
        assert scheme.neighbors(60) == [(60 + o) % 64 for o in scheme.offsets()]
        assert scheme.expected_link_count() == len(scheme.offsets())

    @pytest.mark.parametrize("variant", ["full", "powers"])
    def test_presence_mask_removes_exactly_the_absent_targets(self, variant):
        scheme = DeterministicBaseBOffsets(n=128, base=2, variant=variant)
        present = np.random.default_rng(7).random(128) < 0.5
        for source in range(0, 128, 9):
            expected = [t for t in scheme.neighbors(source) if present[t]]
            assert scheme.neighbors(source, present=present) == expected

    def test_invalid_base_and_variant(self):
        with pytest.raises(ValueError):
            DeterministicBaseBOffsets(n=16, base=1)
        with pytest.raises(ValueError):
            DeterministicBaseBOffsets(n=16, base=2, variant="bogus")
