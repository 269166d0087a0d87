"""Unit tests for the theoretical-bounds module."""

from __future__ import annotations

import math

import pytest

from repro.core import bounds
from repro.core.distributions import harmonic_number


class TestKarpUpfalWigderson:
    def test_constant_drift(self):
        # With drift 1 everywhere, time to go from 100 to 1 is 99.
        value = bounds.karp_upfal_wigderson_bound(100, lambda z: 1.0)
        assert value == pytest.approx(99, rel=1e-3)

    def test_linear_drift_gives_log(self):
        # Drift z/2 (halving): integral of 2/z from 1 to n is 2 ln n.
        n = 1000
        value = bounds.karp_upfal_wigderson_bound(n, lambda z: z / 2.0)
        assert value == pytest.approx(2 * math.log(n), rel=1e-2)

    def test_start_below_floor_is_zero(self):
        assert bounds.karp_upfal_wigderson_bound(0.5, lambda z: 1.0) == 0.0

    def test_negative_drift_rejected(self):
        with pytest.raises(ValueError):
            bounds.karp_upfal_wigderson_bound(10, lambda z: -1.0)


class TestTheorem2:
    def test_zero_epsilon_equals_integral(self):
        value = bounds.theorem2_lower_bound(10.0, lambda z: 1.0, epsilon=0.0)
        assert value == pytest.approx(10.0, rel=1e-2)

    def test_epsilon_discounts_bound(self):
        no_long_jumps = bounds.theorem2_lower_bound(10.0, lambda z: 1.0, epsilon=0.0)
        with_long_jumps = bounds.theorem2_lower_bound(10.0, lambda z: 1.0, epsilon=0.2)
        assert with_long_jumps < no_long_jumps

    def test_zero_start(self):
        assert bounds.theorem2_lower_bound(0.0, lambda z: 1.0, epsilon=0.1) == 0.0


class TestUpperBounds:
    def test_single_link_is_log_squared_like(self):
        small = bounds.upper_bound_single_link(1 << 10)
        large = bounds.upper_bound_single_link(1 << 20)
        # Doubling the exponent of n should roughly quadruple H_n^2... it
        # exactly quadruples log^2, and H_n tracks ln n.
        assert 3.0 < large / small < 5.0

    def test_multiple_links_scale_inverse_in_l(self):
        n = 1 << 16
        assert bounds.upper_bound_multiple_links(n, 8) == pytest.approx(
            bounds.upper_bound_multiple_links(n, 1) / 8
        )

    def test_deterministic_is_log_base_b(self):
        assert bounds.upper_bound_deterministic(1 << 10, 2) == pytest.approx(10)
        assert bounds.upper_bound_deterministic(10_000, 10) == pytest.approx(4)

    def test_link_failures_scale_inverse_in_p(self):
        n, l = 1 << 14, 14
        assert bounds.upper_bound_link_failures_random(n, l, 0.5) == pytest.approx(
            2 * bounds.upper_bound_link_failures_random(n, l, 1.0)
        )
        assert bounds.upper_bound_link_failures_random(n, l, 0.0) == math.inf

    def test_link_failures_deterministic(self):
        value = bounds.upper_bound_link_failures_deterministic(1024, 2, 0.5)
        assert value == pytest.approx(2 * harmonic_number(1024) / 0.5)

    def test_node_failures_scale(self):
        n, l = 1 << 14, 14
        assert bounds.upper_bound_node_failures(n, l, 0.5) == pytest.approx(
            2 * bounds.upper_bound_node_failures(n, l, 0.0)
        )
        assert bounds.upper_bound_node_failures(n, l, 1.0) == math.inf


class TestLowerBounds:
    def test_one_sided_stronger_than_two_sided(self):
        n, l = 1 << 16, 8
        assert bounds.lower_bound_one_sided(n, l) > bounds.lower_bound_two_sided(n, l)

    def test_large_degree_bound(self):
        assert bounds.lower_bound_large_degree(1 << 16, 256) == pytest.approx(2)

    def test_large_degree_requires_links_above_one(self):
        with pytest.raises(ValueError):
            bounds.lower_bound_large_degree(1024, 1)

