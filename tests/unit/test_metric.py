"""Unit tests for the metric spaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metric import LineMetric, PrefixMetric, RingMetric, TorusMetric


@pytest.mark.parametrize(
    "space", [LineMetric(64), RingMetric(64), PrefixMetric(base=2, digits=6)]
)
class TestIntegerPoints:
    """Any integer type is a point (NumPy's included); ``bool`` is not."""

    @pytest.mark.parametrize("point", [33, np.int64(33), np.int32(33), np.uint8(0)])
    def test_integers_in_range_are_points(self, space, point):
        assert space.contains(point)

    @pytest.mark.parametrize("point", [True, False, np.int64(64), -1, 33.0, "33"])
    def test_bools_and_out_of_range_are_not(self, space, point):
        assert not space.contains(point)


class TestLineMetric:
    def test_distance_is_absolute_difference(self):
        line = LineMetric(100)
        assert line.distance(10, 30) == 20
        assert line.distance(30, 10) == 20
        assert line.distance(5, 5) == 0

    def test_size_and_contains(self):
        line = LineMetric(10)
        assert line.size() == 10
        assert line.contains(0)
        assert line.contains(9)
        assert not line.contains(10)
        assert not line.contains(-1)

    def test_closest_breaks_ties_by_order(self):
        line = LineMetric(100)
        # 40 and 60 are both 10 away from 50; the first candidate wins.
        assert line.closest(50, [40, 60]) == 40
        assert line.closest(50, [60, 40]) == 60

    def test_closest_requires_candidates(self):
        line = LineMetric(10)
        with pytest.raises(ValueError):
            line.closest(5, [])

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            LineMetric(0)


class TestRingMetric:
    def test_wraparound_distance(self):
        ring = RingMetric(100)
        assert ring.distance(5, 95) == 10
        assert ring.distance(95, 5) == 10
        assert ring.distance(0, 50) == 50

    def test_antipodal_distance(self):
        ring = RingMetric(10)
        assert ring.distance(0, 5) == 5

    def test_distance_symmetry_and_identity(self):
        ring = RingMetric(37)
        for a, b in [(0, 36), (10, 20), (5, 5)]:
            assert ring.distance(a, b) == ring.distance(b, a)
        assert ring.distance(17, 17) == 0

    def test_clockwise_distance(self):
        ring = RingMetric(100)
        assert ring.clockwise_distance(95, 5) == 10
        assert ring.clockwise_distance(5, 95) == 90
        assert ring.clockwise_distance(7, 7) == 0

    def test_contains(self):
        ring = RingMetric(8)
        assert ring.contains(0) and ring.contains(7)
        assert not ring.contains(8)

    def test_triangle_inequality_samples(self):
        ring = RingMetric(50)
        points = [0, 7, 13, 25, 26, 40, 49]
        for a in points:
            for b in points:
                for c in points:
                    assert ring.distance(a, c) <= ring.distance(a, b) + ring.distance(b, c)


class TestTorusMetric:
    def test_l1_wraparound_distance(self):
        torus = TorusMetric(10, dimensions=2)
        assert torus.distance((0, 0), (9, 9)) == 2
        assert torus.distance((0, 0), (5, 5)) == 10
        assert torus.distance((3, 3), (3, 3)) == 0

    def test_dimension_mismatch_raises(self):
        torus = TorusMetric(10, dimensions=2)
        with pytest.raises(ValueError):
            torus.distance((0, 0, 0), (1, 1))

    def test_size(self):
        assert TorusMetric(4, dimensions=3).size() == 64

    def test_contains(self):
        torus = TorusMetric(4, dimensions=2)
        assert torus.contains((0, 3))
        assert not torus.contains((0, 4))
        assert not torus.contains((1,))
        assert not torus.contains(3)
        assert torus.contains((np.int64(0), np.int32(3)))
        assert not torus.contains((True, 3))

    def test_closest_on_torus(self):
        torus = TorusMetric(8, dimensions=2)
        assert torus.closest((0, 0), [(4, 4), (7, 7), (2, 0)]) == (7, 7)
