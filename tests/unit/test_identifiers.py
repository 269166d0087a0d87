"""Unit tests for key hashing."""

from __future__ import annotations

import pytest

from repro.core.identifiers import FibonacciHasher, Sha256Hasher


class TestHashers:
    @pytest.mark.parametrize("hasher_class", [Sha256Hasher, FibonacciHasher])
    def test_hash_in_range(self, hasher_class):
        hasher = hasher_class(1000)
        for key in ["a", "b", "hello", "key-123", ""]:
            assert 0 <= hasher.hash_key(key) < 1000

    @pytest.mark.parametrize("hasher_class", [Sha256Hasher, FibonacciHasher])
    def test_hash_is_deterministic(self, hasher_class):
        hasher = hasher_class(1 << 20)
        assert hasher.hash_key("stable") == hasher.hash_key("stable")

    @pytest.mark.parametrize("hasher_class", [Sha256Hasher, FibonacciHasher])
    def test_hash_spreads_keys(self, hasher_class):
        hasher = hasher_class(1 << 16)
        points = {hasher.hash_key(f"key-{i}") for i in range(500)}
        # Collisions are possible but should be rare at this load factor.
        assert len(points) > 480

    def test_rejects_non_positive_space(self):
        with pytest.raises(ValueError):
            Sha256Hasher(0)
