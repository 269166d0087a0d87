"""Plaxton / Tapestry-style prefix routing baseline.

Tapestry (and Pastry) route by resolving the target identifier one digit at a
time: a node whose identifier shares a ``k``-digit prefix with the target
forwards to a neighbour sharing ``k + 1`` digits.  With identifiers of
``digits`` base-``base`` digits this takes at most ``digits = log_base(n)``
hops and each node keeps ``O(base * log_base n)`` routing entries — the same
state/hop trade-off as the paper's deterministic base-``b`` scheme
(Theorem 14), which is why the comparison is instructive.

This implementation assumes the fully populated identifier space (every
identifier hosts a node), which keeps the routing-table construction exact;
failures are injected afterwards, as in the paper's experiments.

As an :class:`~repro.overlay.Overlay`, the scheme is greedy routing under
the :class:`~repro.core.metric.PrefixMetric` ultrametric: the snapshot's
:class:`~repro.overlay.policy.PrefixGreedyPolicy` admits exactly the one
neighbour that extends the shared target prefix, so batched routes are
hop-for-hop identical to the scalar digit-fixing walk.  Every label's table
comes from one array function (:meth:`PlaxtonNetwork.neighbor_matrix`), which
both the compiled table and the scalar ``neighbors_of`` read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import PrefixMetric
from repro.overlay.mixin import OverlayMixin, RoutingTable, dense_table
from repro.overlay.policy import PrefixGreedyPolicy
from repro.util.validation import ensure_positive

__all__ = ["PlaxtonNetwork"]


@dataclass
class PlaxtonNetwork(OverlayMixin):
    """Suffix/prefix digit routing over a fully populated identifier space.

    Parameters
    ----------
    digits:
        Number of identifier digits.
    base:
        Digit base (the identifier space has ``base ** digits`` nodes).
    """

    digits: int
    base: int = 4

    failure_stream = "plaxton-failures"
    snapshot_kind = "prefix"

    def __post_init__(self) -> None:
        ensure_positive(self.digits, "digits")
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        self.space = PrefixMetric(base=self.base, digits=self.digits)
        self.size = self.base**self.digits
        # One hop fixes one digit, so digits moves always suffice; the +2
        # headroom keeps the budget unreachable rather than binding.
        self.hop_limit = self.digits + 2
        self._init_members(range(self.size))

    # ------------------------------------------------------------------ #
    # Digit helpers
    # ------------------------------------------------------------------ #

    def digits_of(self, label: int) -> list[int]:
        """Return the base-``base`` digits of ``label``, most significant first."""
        result = []
        remaining = int(label)
        for _ in range(self.digits):
            result.append(remaining % self.base)
            remaining //= self.base
        return list(reversed(result))

    def label_from_digits(self, digit_list: list[int]) -> int:
        """Inverse of :meth:`digits_of`."""
        label = 0
        for digit in digit_list:
            label = label * self.base + int(digit) % self.base
        return label

    def shared_prefix_length(self, a: int, b: int) -> int:
        """Number of leading digits ``a`` and ``b`` share."""
        return self.space.shared_prefix_length(a, b)

    # ------------------------------------------------------------------ #
    # Routing (liveness/failure ops and the route loop come from the mixin)
    # ------------------------------------------------------------------ #

    def next_hop(self, current: int, target: int) -> int | None:
        """The node fixing the next unresolved target digit, if it is alive.

        At each step the current node forwards to the node whose identifier
        matches the target in one more leading digit and matches the current
        node elsewhere.  If that node is dead the route is stuck (Tapestry
        would consult backup neighbours; the paper's comparison uses the
        unadorned algorithm).
        """
        shared = self.shared_prefix_length(current, target)
        next_digits = self.digits_of(current)
        next_digits[: shared + 1] = self.digits_of(target)[: shared + 1]
        following = self.label_from_digits(next_digits)
        if following == current or not self.is_alive(following):
            return None
        if not self.link_is_alive(current, following):
            return None
        return following

    def neighbor_matrix(self, labels: np.ndarray) -> np.ndarray:
        """Every single-digit mutation of each label, one row per label.

        Ordered by (digit position, digit value), most significant position
        first: ``base - 1`` mutations per position, the label's own digit
        skipped.  A label outside the space is read modulo its size, as
        :meth:`digits_of` reads it.
        """
        labels = np.asarray(labels, dtype=np.int64) % self.size
        others = np.arange(self.base - 1, dtype=np.int64)
        blocks = []
        for position in range(self.digits):
            stride = self.base ** (self.digits - 1 - position)
            own = (labels // stride % self.base)[:, None]
            digit = others + (others >= own)
            blocks.append(labels[:, None] + (digit - own) * stride)
        return np.concatenate(blocks, axis=1)

    def neighbors_of(self, label: int) -> list[int]:
        """Every single-digit mutation of ``label`` — the full routing table.

        ``(base - 1) * digits`` entries in :meth:`neighbor_matrix` order; the
        policy admits at most one of them per target, so the order never
        affects routing.
        """
        return self.neighbor_matrix(np.array([label]))[0].tolist()

    def routing_table(self) -> RoutingTable:
        """Every node's digit mutations, in :meth:`neighbor_matrix` order."""
        return dense_table(self.neighbor_matrix(self._member_labels))

    def greedy_policy(self) -> PrefixGreedyPolicy:
        """Strictly extend the shared target prefix (the ultrametric rule)."""
        return PrefixGreedyPolicy(base=self.base, digits=self.digits)

    def state_per_node(self) -> int:
        """Routing entries per node: ``(base - 1) * digits``."""
        return (self.base - 1) * self.digits
