"""Deterministic random-number management.

All stochastic components of the library (link-distribution sampling, failure
injection, workload generation, the dynamic-construction heuristic) draw their
randomness through this module.  The goals are:

* **Reproducibility** — every experiment can be replayed exactly from a single
  integer seed.
* **Independence** — subsystems receive *derived* generators so that, for
  example, adding extra failure sampling does not perturb the link choices of
  an otherwise identical run.
* **Convenience** — a thin :class:`RandomSource` wrapper hands a component
  its named sub-streams lazily, one generator per label.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["derive_seed", "spawn_rng", "draw_fraction", "RandomSource"]

# A fixed, arbitrary namespace string mixed into derived seeds so that the
# library's seed derivation cannot collide with a user's own use of the same
# base seed elsewhere.
_NAMESPACE = "repro.p2p.fault-tolerant-routing"


def derive_seed(base_seed: int, *labels: str | int) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation is a SHA-256 hash of the namespace, base seed, and labels,
    truncated to 63 bits.  Distinct label sequences give (with overwhelming
    probability) independent child seeds, and the mapping is stable across
    processes and Python versions.

    Parameters
    ----------
    base_seed:
        The experiment-level seed chosen by the caller.
    labels:
        Any number of strings or integers identifying the consumer, e.g.
        ``derive_seed(42, "link-choice", node_id)``.

    Returns
    -------
    int
        A non-negative integer suitable for seeding :class:`numpy.random.Generator`.
    """
    hasher = hashlib.sha256()
    hasher.update(_NAMESPACE.encode("utf-8"))
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x00")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") >> 1


def spawn_rng(base_seed: int, *labels: str | int) -> np.random.Generator:
    """Create an independent :class:`numpy.random.Generator` for a subsystem.

    Equivalent to ``np.random.default_rng(derive_seed(base_seed, *labels))``.
    """
    return np.random.default_rng(derive_seed(base_seed, *labels))


def draw_fraction(rng: np.random.Generator, count: int, fraction: float) -> np.ndarray:
    """Draw a ``fraction`` of ``count`` candidates; return their indices.

    The one victim draw of the failure and Byzantine models: exactly
    ``min(count, round(fraction * count))`` distinct indices into the
    caller's candidate list, in ``rng.choice(count, size, replace=False)``
    order.  When that size is 0 the generator is not touched.
    """
    size = min(count, int(round(fraction * count)))
    if size <= 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(count, size=size, replace=False)


@dataclass
class RandomSource:
    """A seeded source of randomness with named sub-streams.

    A :class:`RandomSource` wraps one root seed and hands out independent
    generators keyed by label.  Repeated requests for the same label return
    the same generator object, so a component can call
    :meth:`stream` lazily without worrying about double-seeding.

    Examples
    --------
    >>> source = RandomSource(seed=7)
    >>> links = source.stream("links")
    >>> failures = source.stream("failures")
    >>> links is source.stream("links")
    True
    """

    seed: int
    _streams: dict[str, np.random.Generator] = field(default_factory=dict, repr=False)

    def stream(self, label: str) -> np.random.Generator:
        """Return the generator associated with ``label``, creating it if needed."""
        if label not in self._streams:
            self._streams[label] = spawn_rng(self.seed, label)
        return self._streams[label]
