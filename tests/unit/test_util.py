"""Unit tests for the shared utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rng import RandomSource, derive_seed, spawn_rng
from repro.util.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
)


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

    def test_ensure_in_range(self):
        assert ensure_in_range(5, "x", 0, 10) == 5
        with pytest.raises(ValueError):
            ensure_in_range(11, "x", 0, 10)

    def test_error_messages_name_the_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            ensure_positive(-1, "my_param")
        with pytest.raises(ValueError, match="my_param"):
            ensure_in_range(11, "my_param", 0, 10)
