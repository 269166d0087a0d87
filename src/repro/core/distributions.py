"""Long-distance link distributions.

Section 4.3 of the paper fixes the link model used for the upper bounds: each
node is connected to its immediate neighbours and to ``l`` long-distance
neighbours, each chosen with probability *inversely proportional to its
distance* from the node (the inverse power-law distribution with exponent 1).
The lower bounds of Section 4.2 are proved for *arbitrary* offset
distributions; this module provides the two link schemes the experiments
build with:

* :class:`InversePowerLawDistribution` — ``Pr[offset = delta] ∝ 1 / |delta|^r``
  (the paper's choice is ``r = 1``).
* :class:`DeterministicBaseBOffsets` — the deterministic base-``b`` digit
  scheme of Theorem 14 (links at distances ``j * b^i``), plus the simplified
  power-of-``b`` scheme of Theorem 16 used for the link-failure analysis.

The random distribution samples through a ``numpy.random.Generator``
supplied by the caller so that experiments stay reproducible.  A fully
populated ring inverts one shared offset CDF for every link, through a guide
table (Chen & Asau's indexed search): each uniform's bucket names the first
offset that can answer it, a few vectorised probe steps finish almost every
draw, and the rest are binary-searched, so each draw is exactly the one
``np.searchsorted`` over the CDF would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.metric import RingMetric
from repro.util.validation import ensure_positive

__all__ = [
    "InversePowerLawDistribution",
    "DeterministicBaseBOffsets",
    "harmonic_number",
]

#: Guide-table buckets per point, as a multiple of ``2^ceil(lg n)``: with at
#: least four buckets per CDF entry a draw's first candidate is on average a
#: fraction of an entry short of its answer.
_GUIDE_BUCKETS_PER_POINT = 4

#: Probe rounds before the draws still unresolved fall back to a binary search
#: (at exponent 1 a few draws in a million are left).
_GUIDE_PROBES = 3

#: Draws searched per pass, so the search's temporaries stay a fixed few
#: hundred kilobytes whatever the batch.
_GUIDE_BLOCK = 1 << 15


def harmonic_number(n: int) -> float:
    """Return the n-th harmonic number ``H_n = 1 + 1/2 + ... + 1/n``.

    Uses the asymptotic expansion for large ``n``; exact summation below a
    small threshold.  ``harmonic_number(0)`` is 0 by convention.
    """
    if n <= 0:
        return 0.0
    if n < 128:
        return float(sum(1.0 / i for i in range(1, n + 1)))
    # Euler–Maclaurin: H_n ≈ ln n + γ + 1/(2n) − 1/(12 n²) + 1/(120 n⁴)
    gamma = 0.5772156649015328606
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n) + 1.0 / (120 * n**4)


@dataclass
class InversePowerLawDistribution:
    """Inverse power-law link distribution over a ring of ``n`` points.

    ``Pr[v chosen as long-distance neighbour of u] ∝ 1 / d(u, v)^exponent``
    where ``d`` is the ring distance.  The paper uses ``exponent = 1``
    (harmonic distribution); Kleinberg's one-dimensional optimum is the same.

    Sampling is done *with replacement* across the ``count`` links, exactly as
    in Theorem 13 ("chosen independently with replacement").

    Parameters
    ----------
    n:
        Size of the identifier space.
    exponent:
        Power-law exponent ``r`` (default 1.0, the paper's choice).
    """

    n: int
    exponent: float = 1.0

    _weights_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        ensure_positive(self.n, "n")
        if self.n < 2:
            raise ValueError("n must be at least 2 to have any long-distance links")
        if not math.isfinite(self.exponent):
            raise ValueError(f"exponent must be finite, got {self.exponent!r}")
        self._metric = RingMetric(self.n)

    # -- internal ----------------------------------------------------------

    def _distance_weights(self) -> np.ndarray:
        """Weight of each *ring distance* ``1 .. floor(n/2)`` (unnormalised)."""
        key = 0
        if key not in self._weights_cache:
            max_distance = self.n // 2
            distances = np.arange(1, max_distance + 1, dtype=float)
            weights = distances**-self.exponent
            # Every distance short of n/2 corresponds to two points (clockwise
            # and counter-clockwise); when n is even the antipodal distance
            # n/2 corresponds to a single point.
            multiplicity = np.full(max_distance, 2.0)
            if self.n % 2 == 0:
                multiplicity[-1] = 1.0
            self._weights_cache[key] = weights * multiplicity
        return self._weights_cache[key]

    def _point_weights(self, source: int, present: np.ndarray) -> np.ndarray:
        """Unnormalised weight of every present point as a neighbour of ``source``.

        ``source`` itself, at distance 0, and every absent point weigh 0.
        """
        labels = np.arange(self.n)
        diff = np.abs(labels - source)
        ring_distance = np.minimum(diff, self.n - diff).astype(float)
        with np.errstate(divide="ignore"):
            weights = np.where(ring_distance > 0, ring_distance**-self.exponent, 0.0)
        return np.where(present, weights, 0.0)

    def _offset_cdf(self) -> np.ndarray:
        """Normalised CDF over the offsets ``0 .. n-1`` seen from any source.

        On a fully populated ring the link distribution is shift-invariant:
        the probability of choosing the point at offset ``delta`` from the
        source is ``d(0, delta)^-exponent / S`` for every source.  This single
        CDF therefore serves batched inverse-CDF sampling for *all* sources at
        once, which is what makes one-shot network builds array-native.
        """
        key = 1
        if key not in self._weights_cache:
            offsets = np.arange(self.n, dtype=float)
            ring_distance = np.minimum(offsets, self.n - offsets)
            with np.errstate(divide="ignore"):
                weights = np.where(ring_distance > 0, ring_distance**-self.exponent, 0.0)
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            self._weights_cache[key] = cdf
        return self._weights_cache[key]

    def _offset_guide(self) -> np.ndarray:
        """Guide table of :meth:`_offset_cdf`: ``K`` bucket starts.

        ``guide[b]`` is the first offset whose CDF exceeds ``b / K`` — the
        smallest answer any uniform in ``[b / K, (b + 1) / K)`` can have —
        with ``K = 4 * 2^ceil(lg n)`` buckets.  Scaling by the power of two
        ``K`` is exact, so ``ceil(cdf * K) <= b`` says exactly ``cdf <= b / K``
        and the table is one ``bincount`` and ``cumsum``, ``O(n + K)``.
        """
        key = 2
        if key not in self._weights_cache:
            cdf = self._offset_cdf()
            buckets = _GUIDE_BUCKETS_PER_POINT << (self.n - 1).bit_length()
            cells = np.ceil(cdf * buckets)
            # fmin sends a NaN entry (weights overflowed at a very negative
            # exponent) past every bucket, where searchsorted sorts NaN too.
            np.fmin(cells, buckets, out=cells)
            counts = np.bincount(cells.astype(np.intp), minlength=buckets + 1)
            dtype = np.int32 if buckets <= np.iinfo(np.int32).max else np.int64
            self._weights_cache[key] = np.cumsum(counts[:buckets], dtype=dtype)
        return self._weights_cache[key]

    def _search_offsets(self, uniforms: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self._offset_cdf(), uniforms, side="right")``, guided.

        Each uniform ``u`` in ``[0, 1)`` starts at the guide entry of its
        bucket ``floor(u * K)`` (exact, as ``K`` is a power of two); each probe
        round steps the draws whose candidate's CDF is still at or below their
        uniform one offset on, over a shrinking index set, and the draws left
        after :data:`_GUIDE_PROBES` rounds are binary-searched.  Returns the
        offsets in the guide's integer dtype, shaped like ``uniforms``.
        """
        cdf = self._offset_cdf()
        guide = self._offset_guide()
        flat = uniforms.reshape(-1)
        offsets = np.empty(flat.size, dtype=guide.dtype)
        for start in range(0, flat.size, _GUIDE_BLOCK):
            block = flat[start : start + _GUIDE_BLOCK]
            found = offsets[start : start + _GUIDE_BLOCK]
            np.multiply(block, guide.size, out=found, casting="unsafe")
            found[...] = guide[found]
            pending = np.flatnonzero(cdf[found] <= block)
            for _ in range(_GUIDE_PROBES):
                if not pending.size:
                    break
                found[pending] += 1
                pending = pending[cdf[found[pending]] <= block[pending]]
            if pending.size:
                found[pending] = np.searchsorted(cdf, block[pending], side="right")
        return offsets.reshape(uniforms.shape)

    # -- sampling ------------------------------------------------------------

    def sample_neighbors(
        self,
        source: int,
        count: int,
        rng: np.random.Generator,
        present: np.ndarray,
    ) -> list[int]:
        """Return ``count`` long-link targets for ``source``, drawn through ``rng``.

        Only points marked ``True`` in ``present`` (a boolean array of length
        ``n``) may be chosen — the paper's "link only to existing nodes" model
        of Section 4.3.4.1 — and ``source`` itself never is.  A fully
        populated space draws through :meth:`sample_neighbors_batch`.
        """
        if count <= 0:
            return []
        weights = self._point_weights(source, present)
        total = weights.sum()
        if total <= 0:
            return []
        probabilities = weights / total
        chosen = rng.choice(self.n, size=count, replace=True, p=probabilities)
        return [int(c) for c in chosen]

    def sample_neighbors_batch(
        self,
        sources: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample ``count`` long-link targets for *every* source in one draw.

        Returns an ``int64[len(sources), count]`` matrix of target labels,
        sampled with replacement per source (Theorem 13's model), using a
        single uniform draw of shape ``(len(sources), count)`` inverted through
        the shared offset CDF's guide table (see :meth:`_search_offsets`; each
        offset is the one ``np.searchsorted`` over that CDF gives).  Only
        supports the fully populated space (no ``present`` mask): binomially
        placed nodes
        condition each source's distribution on the presence mask, which
        breaks the shift invariance the shared CDF relies on.

        The draw order is row-major (all of source 0's links, then source 1's,
        ...), exactly the order :class:`~repro.core.builder.RandomGraphBuilder`
        attaches links in, so one-shot object builds and direct snapshot
        builds consume the generator identically.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if count <= 0:
            return np.empty((sources.shape[0], 0), dtype=np.int64)
        offsets = self._search_offsets(rng.random((sources.shape[0], count))).astype(np.int64)
        np.clip(offsets, 1, self.n - 1, out=offsets)
        offsets += sources[:, None]
        offsets %= self.n
        return offsets

    def link_probability(self, distance: int) -> float:
        """Ideal probability that a single long link has ring distance ``distance``."""
        if distance < 1 or distance > self.n // 2:
            return 0.0
        weights = self._distance_weights()
        return float(weights[distance - 1] / weights.sum())


@dataclass
class DeterministicBaseBOffsets:
    """Deterministic base-``b`` digit links (Theorems 14 and 16).

    Two variants are provided:

    * ``full`` (Theorem 14): links at distances ``j * b^i`` for
      ``j = 1 .. b - 1`` and ``i = 0 .. ceil(log_b n) - 1``, in both
      directions.  Routing eliminates one base-``b`` digit of the remaining
      distance per hop, giving ``O(log_b n)`` delivery time.
    * ``powers`` (Theorem 16): links only at distances ``b^i``.  This is the
      simplified model the paper uses for the link-failure analysis, giving
      ``O(b log n / p)`` delivery time when each link survives with
      probability ``p``.

    Parameters
    ----------
    n:
        Size of the identifier space.
    base:
        The base ``b >= 2``.
    variant:
        Either ``"full"`` or ``"powers"``.

    Links are created at both ``+delta`` and ``-delta``.
    """

    n: int
    base: int = 2
    variant: str = "full"

    def __post_init__(self) -> None:
        ensure_positive(self.n, "n")
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.variant not in ("full", "powers"):
            raise ValueError(f"variant must be 'full' or 'powers', got {self.variant!r}")

    def offsets(self) -> list[int]:
        """Return the positive link offsets of the scheme (sorted ascending)."""
        levels = max(1, math.ceil(math.log(self.n, self.base)))
        result: set[int] = set()
        if self.variant == "full":
            for i in range(levels):
                scale = self.base**i
                for j in range(1, self.base):
                    offset = j * scale
                    if 0 < offset < self.n:
                        result.add(offset)
        else:
            for i in range(levels + 1):
                offset = self.base**i
                if 0 < offset < self.n:
                    result.add(offset)
        return sorted(result)

    def expected_link_count(self) -> int:
        """Number of long links per node under this scheme."""
        return 2 * len(self.offsets())

    def neighbors(self, source: int) -> list[int]:
        """Return the deterministic neighbour set of ``source`` on the ring."""
        neighbors: list[int] = []
        for offset in self.offsets():
            for target in ((source + offset) % self.n, (source - offset) % self.n):
                if target != source:
                    neighbors.append(int(target))
        return neighbors
