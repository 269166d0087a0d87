"""Metric spaces into which resources and nodes are embedded.

The paper (Section 2) models a peer-to-peer system as a random graph embedded
in a metric space ``(V, d)``: resources are hashed to points of ``V`` and
greedy routing forwards a message to the neighbour whose point is closest to
the target under ``d``.  Almost all of the paper's analysis takes place on a
one-dimensional space — the integer **line** (Section 4) or, equivalently for
the experiments, a **ring** of ``n`` grid points.  Section 7 raises
higher-dimensional spaces as future work; we provide a d-dimensional torus so
that the Kleinberg-style baselines and the extension experiments have a home.

Every metric space in this module is a space of *integer grid points* (the
paper embeds nodes at grid points), identified by either a single integer
(line, ring) or a tuple of integers (torus).  The classes are deliberately
small: they expose distance and uniform sampling of points.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass
from typing import Sequence

from repro.util.validation import ensure_positive

__all__ = [
    "MetricSpace",
    "LineMetric",
    "RingMetric",
    "TorusMetric",
    "PrefixMetric",
]

Point = int | tuple[int, ...]


def _is_integer(value: object) -> bool:
    """Any integer type (NumPy's included), but not ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class MetricSpace(abc.ABC):
    """Abstract base class for the metric spaces used by the overlay.

    Subclasses must define :meth:`distance` and :meth:`size`.  The default
    :meth:`contains` accepts the integer labels ``0 .. size() - 1`` (spaces
    whose points are not integers override it), and :meth:`closest` is
    expressed in terms of :meth:`distance`; both apply to any subclass.
    """

    @abc.abstractmethod
    def distance(self, a: Point, b: Point) -> int:
        """Return the metric distance ``d(a, b)`` between two points."""

    @abc.abstractmethod
    def size(self) -> int:
        """Return the total number of grid points in the space."""

    def contains(self, point: Point) -> bool:
        """Return ``True`` when ``point`` is a valid grid point of the space."""
        return _is_integer(point) and 0 <= point < self.size()

    # ------------------------------------------------------------------ #
    # Generic helpers expressed in terms of ``distance``.
    # ------------------------------------------------------------------ #

    def closest(self, target: Point, candidates: Sequence[Point]) -> Point:
        """Return the candidate point closest to ``target``.

        Ties are broken in favour of the earliest candidate, which makes the
        greedy router deterministic given its neighbour ordering.

        Raises
        ------
        ValueError
            If ``candidates`` is empty.
        """
        if not candidates:
            raise ValueError("closest() requires at least one candidate point")
        best = candidates[0]
        best_distance = self.distance(best, target)
        for candidate in candidates[1:]:
            candidate_distance = self.distance(candidate, target)
            if candidate_distance < best_distance:
                best = candidate
                best_distance = candidate_distance
        return best


@dataclass(frozen=True)
class LineMetric(MetricSpace):
    """The one-dimensional line of grid points ``{0, 1, ..., n - 1}``.

    This is the space used throughout Section 4 of the paper: nodes sit at
    integer grid points and the distance between two points is the absolute
    difference of their labels.  Unlike the ring, the line has endpoints.

    Parameters
    ----------
    n:
        Number of grid points.  Points are labelled ``0 .. n - 1``.
    """

    n: int

    def __post_init__(self) -> None:
        ensure_positive(self.n, "n")

    def distance(self, a: int, b: int) -> int:
        """Absolute difference ``|a - b|``."""
        return abs(int(a) - int(b))

    def size(self) -> int:
        return self.n


@dataclass(frozen=True)
class RingMetric(MetricSpace):
    """A ring (circle) of ``n`` grid points with wrap-around distance.

    The paper's experiments (Section 6) and systems such as Chord place
    identifiers on a modulo-``n`` circle; distance is measured along the
    circumference in whichever direction is shorter.  The ring removes the
    boundary effects of the line and is the default space for the library's
    experiments.

    Parameters
    ----------
    n:
        Number of grid points.  Points are labelled ``0 .. n - 1``.
    """

    n: int

    def __post_init__(self) -> None:
        ensure_positive(self.n, "n")

    def distance(self, a: int, b: int) -> int:
        """Shorter arc distance between ``a`` and ``b`` on the ring."""
        diff = abs(int(a) - int(b)) % self.n
        return min(diff, self.n - diff)

    def clockwise_distance(self, a: int, b: int) -> int:
        """Distance from ``a`` to ``b`` travelling only clockwise.

        This is the one-sided notion of distance used by Chord-style routing,
        where every link points in a single direction around the ring.
        """
        return (int(b) - int(a)) % self.n

    def size(self) -> int:
        return self.n


@dataclass(frozen=True)
class TorusMetric(MetricSpace):
    """A ``d``-dimensional torus of side length ``side`` with L1 (Manhattan) distance.

    Used by the CAN and Kleinberg-grid baselines and by the higher-dimensional
    extension experiments.  Points are ``d``-tuples of integers in
    ``[0, side)`` and each coordinate wraps around.

    Parameters
    ----------
    side:
        Side length of the torus in every dimension.
    dimensions:
        Number of dimensions ``d`` (the paper's baselines use ``d = 2``).
    """

    side: int
    dimensions: int = 2

    def __post_init__(self) -> None:
        ensure_positive(self.side, "side")
        ensure_positive(self.dimensions, "dimensions")

    def distance(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """Sum over coordinates of the wrap-around distance in that coordinate."""
        if len(a) != self.dimensions or len(b) != self.dimensions:
            raise ValueError(
                f"points must have {self.dimensions} coordinates, "
                f"got {len(a)} and {len(b)}"
            )
        total = 0
        for coordinate_a, coordinate_b in zip(a, b):
            diff = abs(int(coordinate_a) - int(coordinate_b)) % self.side
            total += min(diff, self.side - diff)
        return total

    def size(self) -> int:
        return self.side**self.dimensions

    def contains(self, point: tuple[int, ...]) -> bool:
        if not isinstance(point, tuple) or len(point) != self.dimensions:
            return False
        return all(_is_integer(c) and 0 <= c < self.side for c in point)


@dataclass(frozen=True)
class PrefixMetric(MetricSpace):
    """The digit-prefix ultrametric used by Plaxton / Tapestry-style routing.

    Points are integers in ``[0, base ** digits)`` read as ``digits``
    base-``base`` digit strings (most significant first); the distance between
    two points is the number of trailing digit levels where they differ:
    ``digits - shared_prefix_length``.  Fixing the target's digits one at a
    time — the Plaxton forwarding rule — is exactly greedy routing under this
    metric, which is how Section 3 of the paper folds prefix-routing schemes
    into its metric-space framework.

    Parameters
    ----------
    base:
        Digit base (``>= 2``).
    digits:
        Number of identifier digits.
    """

    base: int
    digits: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        ensure_positive(self.digits, "digits")

    def shared_prefix_length(self, a: int, b: int) -> int:
        """Number of leading base-``base`` digits ``a`` and ``b`` share."""
        a, b = int(a), int(b)
        shared = self.digits
        while a != b:
            a //= self.base
            b //= self.base
            shared -= 1
        return shared

    def distance(self, a: int, b: int) -> int:
        """``digits - shared_prefix_length(a, b)`` (an ultrametric)."""
        return self.digits - self.shared_prefix_length(a, b)

    def size(self) -> int:
        return self.base**self.digits
