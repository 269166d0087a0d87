"""Theoretical bounds from Section 4 and Table 1 of the paper.

This module turns the paper's analytical results into executable code so that
the experiment harness can report *measured* hop counts next to the
*predicted* asymptotic shapes, and so that the probabilistic-recurrence
machinery (Lemma 1 and Theorem 2) is available as reusable numerical tools.

Contents
--------
* :func:`karp_upfal_wigderson_bound` — the Lemma-1 upper bound
  ``T(X0) <= ∫ 1/μ_z dz`` for a non-increasing Markov chain with
  non-decreasing drift ``μ_z``.
* :func:`theorem2_lower_bound` — the Theorem-2 lower bound
  ``E[τ] >= T(X0) / (ε T(X0) + 1 − ε)``.
* Per-theorem helpers mapping directly onto the rows of Table 1: the upper
  bounds of Theorems 12–18 (:func:`upper_bound_single_link`,
  :func:`upper_bound_multiple_links`, ...) and the lower bounds of
  Theorems 3 and 10 (:func:`lower_bound_one_sided`, ...).

Asymptotic bounds hide constants; each helper therefore returns the *shape*
(the expression inside the O/Ω), and experiments compare growth rates rather
than absolute values.  The delivery-time bounds are expressed in harmonic
numbers ``H_n ~ ln n`` (:func:`~repro.core.distributions.harmonic_number`).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.distributions import harmonic_number
from repro.util.validation import ensure_positive, ensure_probability

__all__ = [
    "karp_upfal_wigderson_bound",
    "theorem2_lower_bound",
    "upper_bound_single_link",
    "upper_bound_multiple_links",
    "upper_bound_deterministic",
    "upper_bound_link_failures_random",
    "upper_bound_link_failures_deterministic",
    "upper_bound_node_failures",
    "lower_bound_one_sided",
    "lower_bound_two_sided",
    "lower_bound_large_degree",
]


def karp_upfal_wigderson_bound(
    start: float,
    drift: Callable[[float], float],
    floor: float = 1.0,
    samples: int = 10_000,
) -> float:
    """Numerically evaluate the Lemma-1 upper bound ``∫_floor^start dz / μ_z``.

    Parameters
    ----------
    start:
        The chain's starting value ``X0``.
    drift:
        The drift function ``μ_z = E[X_t − X_{t+1} | X_t = z]``; must be
        positive on ``[floor, start]`` and non-decreasing for the bound to be
        valid (the caller is responsible for the monotonicity condition).
    floor:
        Lower limit of the integral (the chain's absorbing threshold, 1 in the
        paper's statement).
    samples:
        Number of points for the trapezoidal quadrature.

    Returns
    -------
    float
        An upper bound on the expected time for the chain to drop to ``floor``.
    """
    ensure_positive(samples, "samples")
    if start <= floor:
        return 0.0
    grid = np.linspace(floor, start, samples)
    values = np.array([1.0 / drift(z) for z in grid])
    if np.any(~np.isfinite(values)) or np.any(values < 0):
        raise ValueError("drift must be positive and finite over the integration range")
    return float(np.trapezoid(values, grid))


def theorem2_lower_bound(
    start: float,
    speed_cap: Callable[[float], float],
    epsilon: float,
    samples: int = 10_000,
) -> float:
    """Numerically evaluate the Theorem-2 lower bound.

    ``T(X0) = ∫_0^{f(X0)} dz / m_z`` and
    ``E[τ] >= T(X0) / (ε T(X0) + 1 − ε)``.

    Parameters
    ----------
    start:
        The starting potential ``f(X0)`` (e.g. ``ln n``).
    speed_cap:
        The function ``m_z`` bounding the average speed past ``z``.
    epsilon:
        Probability bound on long jumps (the paper's ``ε``).
    samples:
        Number of points for the trapezoidal quadrature.
    """
    ensure_probability(epsilon, "epsilon")
    if start <= 0:
        return 0.0
    grid = np.linspace(0.0, start, samples)[1:]
    values = np.array([1.0 / speed_cap(z) for z in grid])
    if np.any(~np.isfinite(values)) or np.any(values < 0):
        raise ValueError("speed_cap must be positive and finite over the integration range")
    big_t = float(np.trapezoid(values, grid))
    return big_t / (epsilon * big_t + (1.0 - epsilon))


# --------------------------------------------------------------------------- #
# Upper bounds (Theorems 12–18)
# --------------------------------------------------------------------------- #


def upper_bound_single_link(n: int) -> float:
    """Theorem 12: ``O(H_n^2)`` delivery time with a single long link per node."""
    ensure_positive(n, "n")
    return harmonic_number(n) ** 2


def upper_bound_multiple_links(n: int, links: float) -> float:
    """Theorem 13: ``O(log^2 n / l)`` with ``l`` links in ``[1, lg n]``."""
    ensure_positive(n, "n")
    ensure_positive(links, "links")
    return math.log2(max(2, n)) ** 2 / links


def upper_bound_deterministic(n: int, base: int) -> float:
    """Theorem 14: ``O(log_b n)`` with the deterministic base-``b`` digit links."""
    ensure_positive(n, "n")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return math.log(max(2, n), base)


def upper_bound_link_failures_random(n: int, links: float, p: float) -> float:
    """Theorem 15: ``O(log^2 n / (p l))`` when each long link survives w.p. ``p``."""
    ensure_positive(n, "n")
    ensure_positive(links, "links")
    ensure_probability(p, "p")
    if p == 0:
        return math.inf
    return math.log2(max(2, n)) ** 2 / (p * links)


def upper_bound_link_failures_deterministic(n: int, base: int, p: float) -> float:
    """Theorem 16: ``O(b H_n / p)`` for power-of-``b`` links with survival ``p``."""
    ensure_positive(n, "n")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    ensure_probability(p, "p")
    if p == 0:
        return math.inf
    return base * harmonic_number(n) / p


def upper_bound_node_failures(n: int, links: float, p: float) -> float:
    """Theorem 18: ``O(log^2 n / ((1 − p) l))`` when each node fails w.p. ``p``."""
    ensure_positive(n, "n")
    ensure_positive(links, "links")
    ensure_probability(p, "p")
    if p >= 1:
        return math.inf
    return math.log2(max(2, n)) ** 2 / ((1.0 - p) * links)


# --------------------------------------------------------------------------- #
# Lower bounds (Theorems 3 and 10)
# --------------------------------------------------------------------------- #


def lower_bound_one_sided(n: int, links: float) -> float:
    """Theorem 10, one-sided: ``Ω(log^2 n / (l log log n))``."""
    ensure_positive(n, "n")
    ensure_positive(links, "links")
    log_n = math.log2(max(4, n))
    return log_n**2 / (links * max(1.0, math.log2(log_n)))


def lower_bound_two_sided(n: int, links: float) -> float:
    """Theorem 10, two-sided: ``Ω(log^2 n / (l^2 log log n))``."""
    ensure_positive(n, "n")
    ensure_positive(links, "links")
    log_n = math.log2(max(4, n))
    return log_n**2 / (links**2 * max(1.0, math.log2(log_n)))


def lower_bound_large_degree(n: int, links: float) -> float:
    """Theorem 3: ``Ω(log n / log l)`` for ``l`` in ``(lg n, n^c]``."""
    ensure_positive(n, "n")
    if links <= 1:
        raise ValueError(f"links must exceed 1 for Theorem 3, got {links}")
    return math.log2(max(2, n)) / math.log2(links)
