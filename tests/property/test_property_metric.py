"""Property-based tests for the metric-space axioms."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import RingMetric, TorusMetric

sizes = st.integers(min_value=2, max_value=500)


@st.composite
def ring_and_points(draw, count: int = 3):
    n = draw(sizes)
    points = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(count)]
    return RingMetric(n), points


@st.composite
def torus_and_points(draw, count: int = 3):
    side = draw(st.integers(min_value=2, max_value=30))
    dimensions = draw(st.integers(min_value=1, max_value=3))
    points = [
        tuple(draw(st.integers(min_value=0, max_value=side - 1)) for _ in range(dimensions))
        for _ in range(count)
    ]
    return TorusMetric(side, dimensions=dimensions), points


class TestRingAxioms:
    @given(ring_and_points())
    def test_non_negativity_and_identity(self, data):
        space, (a, b, _) = data
        assert space.distance(a, b) >= 0
        assert space.distance(a, a) == 0
        if a != b:
            assert space.distance(a, b) > 0

    @given(ring_and_points())
    def test_symmetry(self, data):
        space, (a, b, _) = data
        assert space.distance(a, b) == space.distance(b, a)

    @given(ring_and_points())
    def test_triangle_inequality(self, data):
        space, (a, b, c) = data
        assert space.distance(a, c) <= space.distance(a, b) + space.distance(b, c)

    @given(ring_and_points())
    def test_distance_bounded_by_half_ring(self, data):
        space, (a, b, _) = data
        assert space.distance(a, b) <= space.n // 2

    @given(ring_and_points())
    def test_clockwise_distances_sum_to_ring(self, data):
        space, (a, b, _) = data
        if a != b:
            assert (
                space.clockwise_distance(a, b) + space.clockwise_distance(b, a) == space.n
            )

    @given(ring_and_points())
    def test_distance_is_the_shorter_arc(self, data):
        space, (a, b, _) = data
        assert space.distance(a, b) == min(
            space.clockwise_distance(a, b), space.clockwise_distance(b, a)
        )


class TestTorusAxioms:
    @settings(max_examples=50)
    @given(torus_and_points())
    def test_symmetry_identity_triangle(self, data):
        space, (a, b, c) = data
        assert space.distance(a, b) == space.distance(b, a)
        assert space.distance(a, a) == 0
        assert space.distance(a, c) <= space.distance(a, b) + space.distance(b, c)

    @settings(max_examples=50)
    @given(torus_and_points())
    def test_distance_bounded_by_diameter(self, data):
        space, (a, b, _) = data
        assert space.distance(a, b) <= space.dimensions * (space.side // 2)

