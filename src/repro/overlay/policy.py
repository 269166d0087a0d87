"""Greedy next-hop rules as data the batched router can execute.

Section 3 of the paper argues that Chord, CAN, and Plaxton-style schemes are
all *greedy routing in a metric space*: each protocol differs only in which
distance it shrinks and which neighbours are admissible at each hop.  A
:class:`GreedyPolicy` captures exactly that difference as a vectorized
key computation, so one :class:`~repro.fastpath.BatchGreedyRouter` loop can
evaluate every topology:

* per hop the router gathers the neighbour-label rows of all active queries
  (:meth:`~repro.fastpath.snapshot.FastpathSnapshot.label_matrix`) and asks
  the policy for a **key matrix** — one integer per (query, slot) pair — and
  a **bound** per query;
* slot ``s`` of row ``r`` is admissible iff ``keys[r, s] < bound[r]``: for
  the metric and torus rules the keys are raw distances to the target and the
  bound is the current node's own distance, so "strictly closer" costs no
  mask; the prefix and Chord rules key every inadmissible slot at
  ``blocked`` and bound every row at ``blocked``;
* the router forwards each query to its row's first minimal key when that key
  is below the row's bound, which must reproduce the scalar protocol's
  next-hop choice *including tie-breaks* (every scalar rule here breaks ties
  in favour of the earliest neighbour, and ``argmin`` returns the first
  minimum).

**A node's own label keys at or above the bound.**  Every greedy rule makes
strict progress — strictly closer, a clockwise advance of at least one, a
strictly longer shared prefix — so a slot holding the current node's label is
never admissible, for any target.  That is part of the contract, not an
accident: the label matrix pads short rows with the row's own label, so
padding needs no mask and ``candidate_keys`` takes none
(``tests/property/test_property_overlay.py`` pins it for every policy).

**Keys are in the label dtype.**  Every policy returns keys in the neighbour
row's dtype — the snapshot's :func:`~repro.fastpath.dtypes.label_dtype`,
``int32`` up to ``2**30`` points — wherever they fit, so a hop reads and
writes half the bytes of ``int64`` arithmetic.  The torus decodes each label
with one division per axis (``q = x // side``, coordinate ``x - q * side``,
then ``x = q``; the last axis is what remains) and sums the wrap distances
``min(|d|, side - |d|)``; its largest key, ``dimensions * side``, fits
wherever the labels do.  There is no per-label coordinate table: it costs
``side**dimensions`` entries per axis and measured slower than the
arithmetic.  Only Chord, whose keys reach ``2 * size + 2``, widens to
``int64`` above ``2**29`` points.  Chord and the prefix rule each take a
clockwise or digit-block residue with one unsigned comparison or minimum in
that dtype (see their class docstrings) instead of a masked ``np.where``
or a full-matrix floor-divide: the same keys in fewer passes over the row
matrix, which ``tests/property/test_property_overlay.py`` holds to a frozen
copy of the earlier derivation.

Policies are pure value objects over plain integers/arrays — no graph or
snapshot references — so they serialise with the spec layer and are shared
freely across liveness variants of a snapshot.  Liveness is a *router*
concern and deliberately stays out of the key computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "GreedyPolicy",
    "MetricGreedyPolicy",
    "TorusGreedyPolicy",
    "PrefixGreedyPolicy",
    "ChordGreedyPolicy",
]


class GreedyPolicy:
    """Abstract vectorized next-hop rule.

    Subclasses define :attr:`blocked` (an integer at or above every bound
    :meth:`candidate_keys` returns) and :meth:`candidate_keys`.
    :meth:`distance` exposes the policy's underlying metric for diagnostics
    and tests.
    """

    #: Sentinel key the router writes into slots it rules out (dead, tried);
    #: at or above every bound, so such a slot is never admissible.
    blocked: int

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized metric distance between label arrays (broadcasting)."""
        raise NotImplementedError

    def candidate_keys(
        self,
        current_labels: np.ndarray,
        neighbor_labels: np.ndarray,
        target_labels: np.ndarray,
        edge_class: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the ``(queries, max_degree)`` keys and ``(queries,)`` bounds of one hop.

        Slot ``s`` of row ``r`` is admissible iff ``keys[r, s] < bound[r]``.

        Parameters
        ----------
        current_labels, target_labels:
            ``(queries,)`` label arrays of each query's current node and goal.
        neighbor_labels:
            ``(queries, max_degree)`` labels of each current node's neighbour
            row; padding slots repeat the current node's own label and must
            key at or above the bound (see the module docstring).
        edge_class:
            ``(queries, max_degree)`` per-edge class codes when the snapshot
            carries them (Chord's finger-vs-successor tiers), else ``None``.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class MetricGreedyPolicy(GreedyPolicy):
    """The paper's rule: move strictly closer under the ring metric.

    This is the policy the default overlay snapshots execute; its arithmetic
    is bit-identical to what :class:`~repro.fastpath.BatchGreedyRouter`
    historically inlined, so the refactor preserves hop-for-hop parity with
    the scalar :class:`~repro.core.routing.GreedyRouter`.
    """

    space_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocked", int(self.space_size) + 1)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Shorter-arc ring distance."""
        diff = np.abs(a - b)
        return np.minimum(diff, self.space_size - diff)

    def candidate_keys(
        self,
        current_labels: np.ndarray,
        neighbor_labels: np.ndarray,
        target_labels: np.ndarray,
        edge_class: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        # Raw distances against the current node's own: "strictly closer" is
        # the router's ``keys < bound``, so the keys need no mask.
        current_distance = self.distance(current_labels, target_labels)
        neighbor_distance = self.distance(neighbor_labels, target_labels[:, None])
        return neighbor_distance, current_distance


@dataclass(frozen=True)
class TorusGreedyPolicy(GreedyPolicy):
    """CAN / Kleinberg-grid rule: strictly decrease L1 torus distance.

    Labels are row-major flattened coordinates of a ``side^dimensions``
    torus; the key is the candidate's L1 wrap-around distance to the target.

    Keys and bound are in the neighbour row's dtype — the snapshot's label
    dtype.  The largest key, ``dimensions * side``, is at most ``2**30`` for
    any torus whose labels fit ``int32``, so nothing is widened.  A label is
    decoded with one division per axis: ``q = x // side``, the coordinate is
    ``x - q * side``, ``x = q`` moves to the next axis, and the last axis is
    what remains of ``x``.  There is no per-label coordinate table: it holds
    ``side**dimensions`` entries per axis (about 10 GB at a ``50,000**2``
    torus) and its gathers measured slower than the arithmetic on CAN.
    """

    side: int
    dimensions: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocked", self.dimensions * self.side + 1)

    def _coordinates(self, labels: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the coordinates of ``labels`` axis by axis, in their own dtype."""
        side = labels.dtype.type(self.side)
        for _ in range(self.dimensions - 1):
            quotient = labels // side
            yield labels - quotient * side
            labels = quotient
        yield labels

    def _wrap_l1(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sum over axes of ``min(|a_i - b_i|, side - |a_i - b_i|)``.

        ``a`` and ``b`` share one dtype and broadcast to an array of at least
        one dimension; every pass after the decode runs in place.
        """
        side = a.dtype.type(self.side)
        total: np.ndarray | None = None
        for a_axis, b_axis in zip(self._coordinates(a), self._coordinates(b)):
            diff = np.subtract(a_axis, b_axis)
            np.abs(diff, out=diff)
            np.minimum(diff, side - diff, out=diff)
            if total is None:
                total = diff
            else:
                total += diff
        assert total is not None  # dimensions >= 1
        return total

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sum over axes of the per-coordinate wrap-around distance."""
        a, b = np.asarray(a), np.asarray(b)
        dtype = np.result_type(a, b)
        shape = np.broadcast_shapes(a.shape, b.shape)
        total = self._wrap_l1(
            np.atleast_1d(a).astype(dtype, copy=False),
            np.atleast_1d(b).astype(dtype, copy=False),
        )
        return total.reshape(shape)

    def candidate_keys(
        self,
        current_labels: np.ndarray,
        neighbor_labels: np.ndarray,
        target_labels: np.ndarray,
        edge_class: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        # Raw L1 distances in the neighbour row's dtype; the current node's
        # own is the bound.
        neighbors = np.asarray(neighbor_labels)
        dtype = neighbors.dtype
        current = np.asarray(current_labels).astype(dtype, copy=False)
        targets = np.asarray(target_labels).astype(dtype, copy=False)
        return self._wrap_l1(neighbors, targets[:, None]), self._wrap_l1(current, targets)


@dataclass(frozen=True)
class PrefixGreedyPolicy(GreedyPolicy):
    """Plaxton / Tapestry rule: strictly extend the shared target prefix.

    The key is the prefix ultrametric ``digits - shared_prefix_length``; at
    most one neighbour of a node is admissible (the single-digit mutation
    that fixes the next unresolved target digit), so the argmin reproduces
    the scalar digit-fixing walk exactly.

    A node at distance ``L`` from the target admits exactly the neighbours in
    the target's block of ``scale = base**(L - 1)`` labels, ``[lo, lo +
    scale)`` with ``lo = target - target mod scale``.  The keys test that
    with one unsigned comparison per slot, ``(neighbour - lo) < scale``,
    where ``scale`` is read from a table of powers (0 at ``L = 0``, so a
    query at its target admits nothing); there is no floor-divide over the
    row matrix and no per-row power.  Key values are unchanged.
    """

    base: int
    digits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocked", self.digits + 1)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Number of digit levels (powers of ``base``) where ``a != b``.

        Divides in the labels' own dtype: every scale is below the space
        size, so it fits wherever the labels do.
        """
        a, b = np.asarray(a), np.asarray(b)
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
        edge_class: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        # Prefix disagreement is downward-closed (equal quotients at level j
        # imply equality at every higher level), so a neighbour is strictly
        # closer than the current node — at distance L from the target — iff
        # it agrees with the target at level L - 1: iff it lies in the
        # target's block ``[lo, lo + scale)``, ``scale = base**(L - 1)`` and
        # ``lo = target - target mod scale``.  One unsigned comparison,
        # ``(neighbour - lo) < scale``, tests that (a label below ``lo``
        # wraps to a huge value); a row at its target (L = 0) has scale 0,
        # so nothing is admissible.  Admissible candidates all get the key
        # L - 1: a prefix routing table admits at most one neighbour per
        # (node, target), so ranking within the admissible set never arises
        # and selection/consumption order are unaffected.  Arithmetic stays
        # in the (compact) label dtype: every difference of two labels fits.
        neighbors = np.asarray(neighbor_labels)
        dtype = neighbors.dtype
        unsigned = np.dtype(f"u{dtype.itemsize}")
        targets = np.asarray(target_labels)
        current_distance = self.distance(current_labels, targets)
        scales = [0] + [self.base**level for level in range(self.digits)]
        scale = np.array(scales, dtype=np.int64)[current_distance]
        lo = (targets - targets % np.maximum(scale, 1)).astype(dtype)
        offset = np.subtract(neighbors, lo[:, None]).view(unsigned)
        admissible = offset < scale.astype(unsigned)[:, None]
        # blocked - (blocked - key) where admissible, blocked - 0 elsewhere:
        # two plain passes, where a masked copy of a broadcast row is slow.
        blocked = dtype.type(self.blocked)
        keys = np.multiply(admissible, (self.blocked + 1 - current_distance)[:, None], dtype=dtype)
        np.subtract(blocked, keys, out=keys)
        return keys, np.full(targets.shape[0], blocked, dtype=dtype)


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

    Each slot is keyed from one clockwise residue, the distance ``d`` from
    neighbour to target.  Wherever the hop is admissible ``d = remaining -
    advance``, and the hop is admissible exactly when ``d < remaining``; a
    successor's key is ``remaining + size + 1 - d``.  The residue is the
    minimum of the unsigned difference and the difference plus ``size``, and
    the successor tier and ``blocked`` are written into it in place.  Key
    values are unchanged.
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
        edge_class: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        # Keys reach 2 * size + 2, so the compact label dtype is only safe
        # for rings up to 2^29 points; larger rings fall back to int64.
        neighbors = np.asarray(neighbor_labels)
        dtype = neighbors.dtype if self.size <= (1 << 29) else np.dtype(np.int64)
        neighbors = neighbors.astype(dtype, copy=False)
        current = np.asarray(current_labels).astype(dtype, copy=False)
        targets = np.asarray(target_labels).astype(dtype, copy=False)
        remaining = self._clockwise(current, targets)
        # A finger's key is the clockwise distance from it to the target,
        # which is ``remaining - advance`` wherever the hop is admissible,
        # and the hop is admissible exactly where that distance is below
        # ``remaining``: advance and distance sum to ``remaining`` modulo
        # ``size``, so a distance below it leaves an advance in
        # ``[1, remaining]``, and every other advance leaves one at or above.
        keys = self._clockwise(neighbors, targets[:, None])
        inadmissible = keys >= remaining[:, None]
        if edge_class is not None:
            # A successor keys on its advance, offset by size + 1:
            # remaining + size + 1 - (remaining - advance).
            offset = remaining + dtype.type(self.size + 1)
            np.putmask(keys, edge_class > 0, offset[:, None] - keys)
        blocked = dtype.type(self.blocked)
        np.copyto(keys, blocked, where=inadmissible)
        return keys, np.full(targets.shape[0], blocked, dtype=dtype)

    def _clockwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(b - a) mod size`` for labels in ``[0, size)``, in their dtype.

        Read unsigned, a negative difference ``d`` is ``2**bits + d`` and
        adding ``size`` wraps it to ``d + size``, below it; a non-negative
        ``d`` stays below ``d + size``, which does not wrap (``2 * size`` fits
        the dtype).  So the minimum of the two is the residue, with no mask.
        """
        delta = np.subtract(b, a)
        unsigned = delta.view(f"u{delta.dtype.itemsize}")
        np.minimum(unsigned, unsigned + unsigned.dtype.type(self.size), out=unsigned)
        return delta
