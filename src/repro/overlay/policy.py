"""Greedy next-hop rules as data the batched router can execute.

Section 3 of the paper argues that Chord, CAN, and Plaxton-style schemes are
all *greedy routing in a metric space*: each protocol differs only in which
distance it shrinks and which neighbours are admissible at each hop.  A
:class:`GreedyPolicy` captures exactly that difference as a vectorized
key computation, so one :class:`~repro.fastpath.BatchGreedyRouter` loop can
evaluate every topology:

* per hop the router gathers the neighbour-label rows of all active queries
  (:meth:`~repro.fastpath.snapshot.FastpathSnapshot.label_matrix`) and asks
  the policy for a **key matrix** — one integer per (query, slot) pair;
* entries ``>= policy.blocked`` mark inadmissible candidates (farther than
  the current node, overshooting);
* the router forwards each query to its row's first minimal key, which must
  reproduce the scalar protocol's next-hop choice *including tie-breaks*
  (every scalar rule here breaks ties in favour of the earliest neighbour,
  and ``argmin`` returns the first minimum).

**A node's own label is never an admissible candidate.**  Every greedy rule
makes strict progress — strictly closer, a clockwise advance of at least
one, a strictly longer shared prefix — so a slot holding the current node's
label keys at ``>= blocked`` for every target.  That is part of the
contract, not an accident: the label matrix pads short rows with the row's
own label, so padding needs no mask and ``candidate_keys`` takes none
(``tests/property/test_property_overlay.py`` pins it for every policy).

Policies are pure value objects over plain integers/arrays — no graph or
snapshot references — so they serialise with the spec layer and are shared
freely across liveness variants of a snapshot.  Liveness and the
neighbour-knowledge regime are *router* concerns and deliberately stay out
of the key computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.routing import RoutingMode

__all__ = [
    "GreedyPolicy",
    "MetricGreedyPolicy",
    "TorusGreedyPolicy",
    "PrefixGreedyPolicy",
    "ChordGreedyPolicy",
]


class GreedyPolicy:
    """Abstract vectorized next-hop rule.

    Subclasses define :attr:`blocked` (an integer strictly larger than any
    admissible key) and :meth:`candidate_keys`.  :meth:`distance` exposes the
    policy's underlying metric for diagnostics and tests.
    """

    #: Sentinel key marking an inadmissible candidate; every admissible key
    #: is strictly smaller.
    blocked: int

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized metric distance between label arrays (broadcasting)."""
        raise NotImplementedError

    def candidate_keys(
        self,
        current_labels: np.ndarray,
        neighbor_labels: np.ndarray,
        target_labels: np.ndarray,
        mode: RoutingMode,
        edge_class: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return the ``(queries, max_degree)`` key matrix for one hop.

        Parameters
        ----------
        current_labels, target_labels:
            ``(queries,)`` label arrays of each query's current node and goal.
        neighbor_labels:
            ``(queries, max_degree)`` labels of each current node's neighbour
            row; padding slots repeat the current node's own label and must
            key at ``>= blocked`` (see the module docstring).
        mode:
            The router's greedy mode.  Policies whose protocol fixes the rule
            (Chord's one-sided clockwise walk, prefix resolution) ignore it.
        edge_class:
            ``(queries, max_degree)`` per-edge class codes when the snapshot
            carries them (Chord's finger-vs-successor tiers), else ``None``.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class MetricGreedyPolicy(GreedyPolicy):
    """The paper's rule: move strictly closer under a 1-D ring/line metric.

    This is the policy the default overlay snapshots execute; its arithmetic
    is bit-identical to what :class:`~repro.fastpath.BatchGreedyRouter`
    historically inlined, so the refactor preserves hop-for-hop parity with
    the scalar :class:`~repro.core.routing.GreedyRouter`.
    """

    kind: str
    space_size: int

    def __post_init__(self) -> None:
        if self.kind not in ("ring", "line"):
            raise ValueError(f"kind must be 'ring' or 'line', got {self.kind!r}")
        object.__setattr__(self, "blocked", int(self.space_size) + 1)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Shorter-arc (ring) or absolute (line) distance."""
        diff = np.abs(a - b)
        if self.kind == "ring":
            return np.minimum(diff, self.space_size - diff)
        return diff

    def displacement(self, source: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Signed displacement matching the scalar metric spaces."""
        delta = target - source
        if self.kind == "ring":
            forward = np.where(delta < 0, delta + self.space_size, delta)
            backward = forward - self.space_size
            return np.where(forward <= -backward, forward, backward)
        return delta

    def candidate_keys(
        self,
        current_labels: np.ndarray,
        neighbor_labels: np.ndarray,
        target_labels: np.ndarray,
        mode: RoutingMode,
        edge_class: np.ndarray | None = None,
    ) -> np.ndarray:
        current_distance = self.distance(current_labels, target_labels)
        neighbor_distance = self.distance(neighbor_labels, target_labels[:, None])
        candidates = neighbor_distance < current_distance[:, None]
        if mode is RoutingMode.ONE_SIDED:
            # Never traverse a link that jumps past the target: the signed
            # displacement towards the target must not change sign.
            before = self.displacement(current_labels, target_labels)
            after = self.displacement(neighbor_labels, target_labels[:, None])
            overshoot = ((before[:, None] > 0) != (after > 0)) & (after != 0)
            candidates &= ~overshoot
        blocked = neighbor_distance.dtype.type(self.blocked)
        return np.where(candidates, neighbor_distance, blocked)


@dataclass(frozen=True)
class TorusGreedyPolicy(GreedyPolicy):
    """CAN / Kleinberg-grid rule: strictly decrease L1 torus distance.

    Labels are row-major flattened coordinates of a ``side^dimensions``
    torus; the key is the candidate's L1 wrap-around distance to the target.
    """

    side: int
    dimensions: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocked", self.dimensions * self.side + 1)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sum over axes of the per-coordinate wrap-around distance."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        total = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for axis in range(self.dimensions):
            scale = self.side**axis
            diff = np.abs((a // scale) % self.side - (b // scale) % self.side)
            total += np.minimum(diff, self.side - diff)
        return total

    def candidate_keys(
        self,
        current_labels: np.ndarray,
        neighbor_labels: np.ndarray,
        target_labels: np.ndarray,
        mode: RoutingMode,
        edge_class: np.ndarray | None = None,
    ) -> np.ndarray:
        current_distance = self.distance(current_labels, target_labels)
        neighbor_distance = self.distance(neighbor_labels, target_labels[:, None])
        candidates = neighbor_distance < current_distance[:, None]
        return np.where(candidates, neighbor_distance, np.int64(self.blocked))


@dataclass(frozen=True)
class PrefixGreedyPolicy(GreedyPolicy):
    """Plaxton / Tapestry rule: strictly extend the shared target prefix.

    The key is the prefix ultrametric ``digits - shared_prefix_length``; at
    most one neighbour of a node is admissible (the single-digit mutation
    that fixes the next unresolved target digit), so the argmin reproduces
    the scalar digit-fixing walk exactly.
    """

    base: int
    digits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocked", self.digits + 1)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Number of digit levels (powers of ``base``) where ``a != b``."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        total = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for level in range(self.digits):
            scale = self.base**level
            total += a // scale != b // scale
        return total

    def candidate_keys(
        self,
        current_labels: np.ndarray,
        neighbor_labels: np.ndarray,
        target_labels: np.ndarray,
        mode: RoutingMode,
        edge_class: np.ndarray | None = None,
    ) -> np.ndarray:
        # Prefix disagreement is downward-closed (equal quotients at level j
        # imply equality at every higher level), so a neighbour is strictly
        # closer than the current node — at distance L from the target — iff
        # it agrees with the target at level L - 1.  That single comparison
        # replaces a full per-level distance matrix.  Admissible candidates
        # all get the key L - 1: a prefix routing table admits at most one
        # neighbour per (node, target), so ranking within the admissible set
        # never arises and selection/consumption order are unaffected.
        # Arithmetic stays in the (compact) label dtype — every intermediate
        # fits because scales and keys are bounded by the space size.
        neighbors = np.asarray(neighbor_labels)
        dtype = neighbors.dtype
        current = np.asarray(current_labels)
        targets = np.asarray(target_labels)
        current_distance = self.distance(current, targets)
        # current != target for every query the router steps, so L >= 1; the
        # maximum is belt-and-braces for direct callers.
        scale = (self.base ** np.maximum(current_distance - 1, 0)).astype(dtype)
        agrees = neighbors // scale[:, None] == (
            targets.astype(dtype) // scale
        )[:, None]
        candidates = agrees & (current_distance[:, None] >= 1)
        keys = current_distance.astype(dtype) - dtype.type(1)
        return np.where(candidates, keys[:, None], dtype.type(self.blocked))


@dataclass(frozen=True)
class ChordGreedyPolicy(GreedyPolicy):
    """Chord's one-sided clockwise rule with a two-tier neighbour table.

    A candidate must advance clockwise without overshooting the target
    (``0 < cw(current, nbr) <= cw(current, target)``).  Fingers (edge class
    0) are keyed by the *remaining* clockwise distance after the hop, so the
    minimum is the farthest admissible finger; successors (edge class 1) are
    keyed at an offset of ``size + 1`` by their own advance, so they are only
    ever chosen when no finger qualifies — and then the *nearest* admissible
    successor wins, exactly the scalar fallback's first-in-list pick.
    """

    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocked", 2 * self.size + 3)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Clockwise distance ``(b - a) mod size`` (Chord's one-sided metric).

        Labels are grid points in ``[0, size)``, so one conditional add
        replaces the (much slower) general modulo reduction.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        delta = b - a
        return np.where(delta < 0, delta + self.size, delta)

    def candidate_keys(
        self,
        current_labels: np.ndarray,
        neighbor_labels: np.ndarray,
        target_labels: np.ndarray,
        mode: RoutingMode,
        edge_class: np.ndarray | None = None,
    ) -> np.ndarray:
        # Keys reach 2 * size + 2, so the compact label dtype is only safe
        # for rings up to 2^29 points; larger rings fall back to int64.
        neighbors = np.asarray(neighbor_labels)
        dtype = neighbors.dtype if self.size <= (1 << 29) else np.dtype(np.int64)
        neighbors = neighbors.astype(dtype, copy=False)
        current = np.asarray(current_labels).astype(dtype, copy=False)
        targets = np.asarray(target_labels).astype(dtype, copy=False)
        size = dtype.type(self.size)
        delta = targets - current
        remaining = np.where(delta < 0, delta + size, delta)
        delta = neighbors - current[:, None]
        advance = np.where(delta < 0, delta + size, delta)
        candidates = (advance >= 1) & (advance <= remaining[:, None])
        keys = remaining[:, None] - advance
        if edge_class is not None:
            keys = np.where(edge_class > 0, advance + (size + dtype.type(1)), keys)
        return np.where(candidates, keys, dtype.type(self.blocked))
