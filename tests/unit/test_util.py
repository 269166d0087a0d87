"""Unit tests for the shared utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rng import RandomSource, derive_seed, draw_fraction, spawn_rng
from repro.util.validation import ensure_non_negative, ensure_positive, ensure_probability


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_labels_matter(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(42, "a", 1) != derive_seed(42, "a", 2)

    def test_base_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_non_negative(self):
        for seed in range(20):
            assert derive_seed(seed, "label") >= 0


class TestSpawnRng:
    def test_independent_streams(self):
        first = spawn_rng(0, "stream-a").random(100)
        second = spawn_rng(0, "stream-b").random(100)
        assert not np.allclose(first, second)

    def test_reproducible(self):
        assert np.allclose(spawn_rng(7, "x").random(10), spawn_rng(7, "x").random(10))


def _victim_loop(rng, count, fraction):
    """The victim draw as each failure model used to spell it inline."""
    size = min(int(round(fraction * count)), count)
    if size > 0:
        return [int(i) for i in rng.choice(count, size=size, replace=False)]
    return []


class TestDrawFraction:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("fraction", [0.0, 0.01, 0.25, 0.5, 0.999, 1.0])
    def test_matches_the_inline_loop_draw_and_stream(self, count, fraction):
        ours, theirs = spawn_rng(5, "victims"), spawn_rng(5, "victims")
        drawn = draw_fraction(ours, count, fraction)
        assert drawn.tolist() == _victim_loop(theirs, count, fraction)
        assert ours.bit_generator.state == theirs.bit_generator.state
        # The next draw from the stream is unchanged as well.
        assert ours.random() == theirs.random()

    def test_indices_are_distinct_and_in_range(self):
        drawn = draw_fraction(spawn_rng(1, "x"), 50, 0.4)
        assert drawn.dtype == np.int64
        assert len(drawn) == 20 == len(set(drawn.tolist()))
        assert all(0 <= i < 50 for i in drawn.tolist())

    def test_nothing_to_draw_leaves_the_stream_untouched(self):
        rng = spawn_rng(2, "x")
        state = rng.bit_generator.state
        assert draw_fraction(rng, 10, 0.04).size == 0
        assert rng.bit_generator.state == state


class TestRandomSource:
    def test_stream_caching(self):
        source = RandomSource(seed=3)
        assert source.stream("a") is source.stream("a")
        assert source.stream("a") is not source.stream("b")


class TestValidation:
    def test_ensure_positive(self):
        assert ensure_positive(1, "x") == 1
        with pytest.raises(ValueError):
            ensure_positive(0, "x")
        with pytest.raises(ValueError):
            ensure_positive(-1, "x")

    def test_ensure_non_negative(self):
        assert ensure_non_negative(0, "x") == 0
        with pytest.raises(ValueError):
            ensure_non_negative(-0.1, "x")

    def test_ensure_probability(self):
        assert ensure_probability(0.5, "p") == 0.5
        assert ensure_probability(0, "p") == 0.0
        assert ensure_probability(1, "p") == 1.0
        with pytest.raises(ValueError):
            ensure_probability(1.01, "p")
        with pytest.raises(ValueError):
            ensure_probability(-0.01, "p")

    def test_error_messages_name_the_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            ensure_positive(-1, "my_param")
        with pytest.raises(ValueError, match="my_param"):
            ensure_probability(2, "my_param")
