"""The link-latency model.

The paper measures cost in messages, so hop counts are the primary metric;
the round-based scenarios nevertheless draw a latency for every hop of a
delivered lookup so that wall-clock style results (end-to-end latency
quantiles) can be reported next to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import spawn_rng
from repro.util.validation import ensure_non_negative, ensure_positive

__all__ = ["LogNormalLatency"]


@dataclass
class LogNormalLatency:
    """Heavy-tailed latency: ``exp(N(mu, sigma))`` per message.

    A reasonable stand-in for wide-area round-trip times, which are famously
    log-normal-ish with a long tail.
    """

    median: float = 1.0
    sigma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        ensure_positive(self.median, "median")
        ensure_non_negative(self.sigma, "sigma")
        self._rng = spawn_rng(self.seed, "lognormal-latency")
        self._mu = float(np.log(self.median))

    def sample(self, count: int) -> np.ndarray:
        """Return ``count`` per-message latencies, in stream order.

        One batch of ``count`` equals ``count`` scalar draws: ``lognormal``
        keeps no state between draws beyond the generator's.
        """
        return self._rng.lognormal(self._mu, self.sigma, size=count)
