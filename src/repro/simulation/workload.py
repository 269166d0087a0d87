"""Workload generators: lookup traffic and churn.

The paper's experiments use uniformly random (source, destination) pairs of
live nodes; real deployments additionally see continuous node churn.  This
module provides generators for both so that examples and extension
experiments can exercise the system under realistic conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.util.rng import spawn_rng
from repro.util.validation import ensure_positive, ensure_probability

__all__ = ["LookupWorkload", "ChurnEvent", "ChurnWorkload"]


@dataclass
class LookupWorkload:
    """Generates (origin, target) pairs of live nodes, uniformly at random.

    Parameters
    ----------
    seed:
        Seed for pair selection.
    allow_equal:
        Whether origin may equal target (the paper's experiments route between
        distinct nodes, so the default is ``False``).
    """

    seed: int = 0
    allow_equal: bool = False

    def __post_init__(self) -> None:
        self._rng = spawn_rng(self.seed, "lookup-workload")

    def pairs(self, live_labels: list[int], count: int) -> list[tuple[int, int]]:
        """Return ``count`` (origin, target) pairs drawn from ``live_labels``."""
        ensure_positive(count, "count")
        if len(live_labels) < 2:
            raise ValueError("need at least two live nodes to generate lookups")
        labels = np.asarray(live_labels)
        result: list[tuple[int, int]] = []
        for _ in range(count):
            if self.allow_equal:
                origin, target = self._rng.choice(labels, size=2, replace=True)
            else:
                origin, target = self._rng.choice(labels, size=2, replace=False)
            result.append((int(origin), int(target)))
        return result


@dataclass
class ChurnEvent:
    """One churn action: a node joining or leaving at a given time."""

    time: float
    action: str  # "join", "leave", or "crash"
    address: int


@dataclass
class ChurnWorkload:
    """Generates a schedule of joins and departures.

    Nodes join and leave according to independent Poisson processes; departing
    nodes either leave gracefully or crash, controlled by ``crash_fraction``.

    Parameters
    ----------
    space_size:
        Size of the identifier space new nodes draw addresses from.
    join_rate / leave_rate:
        Events per unit time for joins and departures.
    crash_fraction:
        Fraction of departures that are crashes rather than graceful leaves.
    seed:
        Seed for the schedule.
    """

    space_size: int
    join_rate: float = 1.0
    leave_rate: float = 1.0
    crash_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        ensure_positive(self.space_size, "space_size")
        ensure_positive(self.join_rate, "join_rate")
        ensure_positive(self.leave_rate, "leave_rate")
        ensure_probability(self.crash_fraction, "crash_fraction")
        self._rng = spawn_rng(self.seed, "churn")

    def schedule(
        self,
        duration: float,
        initial_members: list[int],
    ) -> list[ChurnEvent]:
        """Return a time-sorted churn schedule over ``duration`` time units.

        Join addresses are drawn uniformly from unoccupied points; leave and
        crash victims are drawn uniformly from the current membership.  The
        schedule is generated assuming the events are applied in order, so the
        membership evolves consistently.
        """
        ensure_positive(duration, "duration")
        members = set(initial_members)
        events: list[ChurnEvent] = []

        time = 0.0
        while True:
            join_gap = self._rng.exponential(1.0 / self.join_rate)
            leave_gap = self._rng.exponential(1.0 / self.leave_rate)
            if join_gap <= leave_gap:
                time += join_gap
                action = "join"
            else:
                time += leave_gap
                action = "leave"
            if time > duration:
                break
            if action == "join":
                address = self._pick_free_address(members)
                if address is None:
                    continue
                members.add(address)
                events.append(ChurnEvent(time=time, action="join", address=address))
            else:
                if len(members) <= 2:
                    continue
                address = int(self._rng.choice(sorted(members)))
                members.discard(address)
                kind = (
                    "crash"
                    if self._rng.random() < self.crash_fraction
                    else "leave"
                )
                events.append(ChurnEvent(time=time, action=kind, address=address))
        return events

    def _pick_free_address(self, members: set[int]) -> int | None:
        """Pick an unoccupied address uniformly at random (a few retries)."""
        for _ in range(32):
            candidate = int(self._rng.integers(0, self.space_size))
            if candidate not in members:
                return candidate
        free = [label for label in range(self.space_size) if label not in members]
        if not free:
            return None
        return int(self._rng.choice(free))


def iterate_in_time_order(events: list[ChurnEvent]) -> Iterator[ChurnEvent]:
    """Yield churn events sorted by time (stable for equal times)."""
    yield from sorted(events, key=lambda event: event.time)
