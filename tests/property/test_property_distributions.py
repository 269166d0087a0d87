"""Property-based tests for the link distributions."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    DeterministicBaseBOffsets,
    InversePowerLawDistribution,
    harmonic_number,
)


class TestInversePowerLawProperties:
    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=4, max_value=2000),
        exponent=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_link_probabilities_form_distribution(self, n, exponent):
        distribution = InversePowerLawDistribution(n, exponent=exponent)
        probabilities = [distribution.link_probability(d) for d in range(1, n // 2 + 1)]
        assert all(p >= 0 for p in probabilities)
        assert abs(sum(probabilities) - 1.0) < 1e-9

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=4, max_value=1000),
        exponent=st.floats(min_value=0.1, max_value=2.5),
    )
    def test_monotone_decreasing_in_distance(self, n, exponent):
        distribution = InversePowerLawDistribution(n, exponent=exponent)
        previous = distribution.link_probability(1)
        # Ignore the final antipodal distance, whose multiplicity may be 1.
        for d in range(2, n // 2):
            current = distribution.link_probability(d)
            assert current <= previous + 1e-12
            previous = current

    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=8, max_value=500),
        source=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_samples_valid(self, n, source, count, seed):
        source = source % n
        distribution = InversePowerLawDistribution(n)
        rng = np.random.default_rng(seed)
        samples = distribution.sample_neighbors_batch(np.array([source]), count, rng)[0].tolist()
        assert len(samples) == count
        assert all(0 <= s < n and s != source for s in samples)


class TestDeterministicProperties:
    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=4, max_value=5000),
        base=st.integers(min_value=2, max_value=16),
        variant=st.sampled_from(["full", "powers"]),
    )
    def test_offsets_within_space_and_sorted(self, n, base, variant):
        scheme = DeterministicBaseBOffsets(n=n, base=base, variant=variant)
        offsets = scheme.offsets()
        assert offsets == sorted(offsets)
        assert all(0 < offset < n for offset in offsets)
        assert len(offsets) == len(set(offsets))

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=4, max_value=5000),
        base=st.integers(min_value=2, max_value=16),
    )
    def test_full_variant_can_express_any_distance(self, n, base):
        """Any distance below n decomposes into at most one offset per scale.

        This is the digit-elimination property Theorem 14's routing relies on:
        the largest offset not exceeding the remaining distance removes the
        most significant base-``b`` digit.
        """
        scheme = DeterministicBaseBOffsets(n=n, base=base, variant="full")
        offsets = scheme.offsets()
        distance = n - 1
        steps = 0
        while distance > 0 and steps < 10 * len(offsets) + 10:
            usable = [offset for offset in offsets if offset <= distance]
            assert usable, f"no offset can advance from distance {distance}"
            distance -= max(usable)
            steps += 1
        assert distance == 0


class TestHarmonicProperties:
    @settings(max_examples=60)
    @given(n=st.integers(min_value=1, max_value=100_000))
    def test_bracketed_by_logs(self, n):
        value = harmonic_number(n)
        assert np.log(n + 1) <= value <= np.log(n) + 1
