"""Shared utilities: random-number management, validation, and logging helpers.

These modules deliberately contain no peer-to-peer logic.  They exist so that
every other subpackage can rely on a single, deterministic source of
randomness and a consistent set of argument-validation helpers.
"""

from repro.util.rng import RandomSource, derive_seed, spawn_rng
from repro.util.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
)

__all__ = [
    "RandomSource",
    "derive_seed",
    "spawn_rng",
    "ensure_in_range",
    "ensure_non_negative",
    "ensure_positive",
    "ensure_probability",
]
