"""Resource keys and their embedding into the metric space.

Section 2 of the paper assumes a hash function ``h : K -> V`` mapping resource
keys to points of the metric space, and assumes the hash populates the space
*evenly*.  This module provides :class:`KeyHasher`, the hash family used to
embed keys, with two concrete hashers: a SHA-256 based hasher (the realistic
choice) and a Fibonacci-multiplicative hasher (cheap and well-spread, handy
for very large simulated spaces).  What is stored where is the DHT layer's
business (:mod:`repro.dht`).
"""

from __future__ import annotations

import hashlib

from repro.util.validation import ensure_positive

__all__ = ["KeyHasher", "Sha256Hasher", "FibonacciHasher"]


class KeyHasher:
    """Base class for hash functions embedding keys into ``{0, .., space_size - 1}``.

    Subclasses implement :meth:`hash_key`; the base class validates the
    space size.
    """

    def __init__(self, space_size: int) -> None:
        ensure_positive(space_size, "space_size")
        self.space_size = int(space_size)

    def hash_key(self, key: str) -> int:
        """Map ``key`` to a point label in ``[0, space_size)``."""
        raise NotImplementedError


class Sha256Hasher(KeyHasher):
    """SHA-256 based key hashing, reduced modulo the space size.

    This mirrors what deployed systems (Chord's SHA-1, for example) do and is
    the default hasher for the DHT layer.  The modulo reduction introduces a
    negligible bias for space sizes far below 2**256.
    """

    def hash_key(self, key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "big") % self.space_size


class FibonacciHasher(KeyHasher):
    """Fibonacci (multiplicative) hashing of the key's built-in hash.

    Cheaper than SHA-256 and adequate for simulation workloads where
    cryptographic strength is irrelevant.  The multiplier is the 64-bit
    knuth constant ``2**64 / phi``.
    """

    _MULTIPLIER = 0x9E3779B97F4A7C15

    def hash_key(self, key: str) -> int:
        # Use a stable FNV-1a style fold of the key bytes rather than
        # Python's randomised ``hash`` so results are reproducible across runs.
        value = 0xCBF29CE484222325
        for byte in key.encode("utf-8"):
            value ^= byte
            value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        value = (value * self._MULTIPLIER) & 0xFFFFFFFFFFFFFFFF
        return value % self.space_size
