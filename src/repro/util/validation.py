"""Argument-validation helpers used across the library.

Every public constructor and function validates its inputs eagerly so that
misconfiguration surfaces at the call site rather than deep inside a
simulation loop.  The helpers below raise :class:`ValueError` with messages
that name the offending parameter.
"""

from __future__ import annotations

__all__ = [
    "ensure_positive",
    "ensure_non_negative",
    "ensure_probability",
    "ensure_in_range",
]


def ensure_positive(value: float, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def ensure_non_negative(value: float, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` is zero or positive."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def ensure_probability(value: float, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)


def ensure_in_range(value: float, name: str, low: float, high: float) -> float:
    """Raise :class:`ValueError` unless ``low <= value <= high``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return value
