"""Property-based tests for the link distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    @settings(max_examples=60)
    @given(
        data=st.data(),
        n=st.integers(min_value=2, max_value=64),
        exponent=st.sampled_from([0.0, 1.0, 2.0]),
        count=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_masked_samples_are_present_and_never_the_source(self, data, n, exponent, count, seed):
        # Section 4.3.4.1's "links to existing nodes only": RandomGraphBuilder
        # attaches these draws as they come, with no absent-sink fallback.
        present = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda mask: sum(mask) >= 2)
            )
        )
        source = data.draw(st.integers(min_value=0, max_value=n - 1))
        distribution = InversePowerLawDistribution(n, exponent=exponent)
        rng = np.random.default_rng(seed)
        samples = distribution.sample_neighbors(source, count, rng, present)
        assert len(samples) == count
        assert all(present[s] and s != source for s in samples)


GUIDE_SIZES = [2, 3, 4, 5, 7, 1024, 1025, 1 << 17]
GUIDE_EXPONENTS = [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]


def _adversarial_uniforms(distribution: InversePowerLawDistribution) -> np.ndarray:
    """Every CDF entry and bucket edge, the doubles either side, 0 and 1⁻."""
    cdf = distribution._offset_cdf()
    buckets = distribution._offset_guide().size
    points = np.concatenate(
        [cdf, np.arange(buckets) / buckets, [0.0, np.nextafter(1.0, 0.0)]]
    )
    points = np.concatenate(
        [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)]
    )
    return points[(points >= 0.0) & (points < 1.0)]


def _assert_guided_equals_searchsorted(distribution, uniforms):
    expected = np.searchsorted(distribution._offset_cdf(), uniforms, side="right")
    guided = distribution._search_offsets(uniforms)
    assert guided.shape == expected.shape
    np.testing.assert_array_equal(guided, expected)


@st.composite
def _uniforms_near_the_table(draw, distribution):
    """Doubles in [0, 1): arbitrary ones, and CDF entries or bucket edges ± 1 ulp."""
    cdf = distribution._offset_cdf()
    buckets = distribution._offset_guide().size
    values = []
    for _ in range(draw(st.integers(min_value=1, max_value=64))):
        kind = draw(st.sampled_from(["any", "cdf", "edge"]))
        if kind == "any":
            values.append(draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
            continue
        if kind == "cdf":
            value = float(cdf[draw(st.integers(min_value=0, max_value=cdf.size - 1))])
        else:
            value = draw(st.integers(min_value=0, max_value=buckets - 1)) / buckets
        value = np.nextafter(value, draw(st.sampled_from([-np.inf, value, np.inf])))
        if 0.0 <= value < 1.0:
            values.append(float(value))
    return np.array(values or [0.0])


class TestGuidedOffsetSearch:
    """The guide-table draw is ``np.searchsorted(cdf, u, side="right")``."""

    @pytest.mark.parametrize("exponent", GUIDE_EXPONENTS)
    @pytest.mark.parametrize("n", GUIDE_SIZES)
    def test_every_table_boundary(self, n, exponent):
        distribution = InversePowerLawDistribution(n, exponent=exponent)
        _assert_guided_equals_searchsorted(distribution, _adversarial_uniforms(distribution))

    @pytest.mark.parametrize("exponent", GUIDE_EXPONENTS)
    @pytest.mark.parametrize("n", GUIDE_SIZES)
    def test_guide_entry_is_its_bucket_floor_answer(self, n, exponent):
        # A guide entry early is still exact (only slower); this pins the table.
        distribution = InversePowerLawDistribution(n, exponent=exponent)
        guide = distribution._offset_guide()
        assert guide.size == 4 << (n - 1).bit_length()
        edges = np.arange(guide.size) / guide.size
        expected = np.searchsorted(distribution._offset_cdf(), edges, side="right")
        np.testing.assert_array_equal(guide, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.sampled_from(GUIDE_SIZES), st.integers(min_value=2, max_value=5000)),
        exponent=st.one_of(
            st.sampled_from(GUIDE_EXPONENTS), st.floats(min_value=-4.0, max_value=8.0)
        ),
        data=st.data(),
    )
    @example(n=2, exponent=1.0, data=None)
    @example(n=1025, exponent=-1.0, data=None)
    @example(n=1 << 17, exponent=3.0, data=None)
    # Weights overflow to inf (a NaN-tailed CDF) and underflow to 0.
    @example(n=64, exponent=-1100.0, data=None)
    @example(n=64, exponent=800.0, data=None)
    def test_random_and_near_boundary_doubles(self, n, exponent, data):
        with np.errstate(over="ignore", invalid="ignore"):
            distribution = InversePowerLawDistribution(n, exponent=exponent)
            distribution._offset_cdf()
        if data is None:
            uniforms = _adversarial_uniforms(distribution)
        else:
            uniforms = data.draw(_uniforms_near_the_table(distribution))
        _assert_guided_equals_searchsorted(distribution, uniforms)

    def test_batch_shape_is_kept(self):
        distribution = InversePowerLawDistribution(1024)
        uniforms = np.random.default_rng(0).random((37, 11))
        _assert_guided_equals_searchsorted(distribution, uniforms)


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
