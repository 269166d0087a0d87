"""Fault schedules: adversarial fault timelines as data.

The paper's experiments apply one static failure model per measurement
(Sections 4.3.3, 4.3.4, 6); its *claims*, though, are about graceful
degradation under an evolving fault process — the adversary-schedule
abstraction of the distributed-computing literature.  This module makes that
abstraction a first-class value: a :class:`FaultSchedule` is an ordered
timeline of typed :class:`FaultEvent`\\ s (crashes, revivals, independent and
correlated link failures, targeted attacks, Byzantine flips, repair and
stabilize rounds) that :class:`~repro.faults.driver.FaultDriver` replays
deterministically against any overlay — every mutation a call on the
overlay's observable mutators instead of an ad-hoc model ``.apply()``.

Schedules are pure data (frozen dataclasses): the same schedule + seed
replays the same fault process on the object engine and on the fastpath
mirror, which is what the engine-identity tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import spawn_rng
from repro.util.validation import ensure_probability

__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "degradation_schedule",
    "random_schedule",
]

#: The typed event vocabulary, in documentation order.
#:
#: ``crash``       — fail a ``level`` fraction of the live nodes.
#: ``revive``      — revive a ``level`` fraction of the dead nodes.
#: ``link_fail``   — fail each live link independently with probability ``level``.
#: ``region_fail`` — fail every link held by a contiguous label region
#:                   spanning a ``level`` fraction of the space (correlated
#:                   failure: one rack / one AS going dark).
#: ``targeted``    — crash the ``count`` highest-out-degree live nodes
#:                   (adversarial attack; label order breaks degree ties).
#: ``byzantine``   — mark a ``level`` fraction of live nodes compromised
#:                   (report-only: routing state is not mutated).
#: ``repair``      — revive every dead node and link.
#: ``stabilize``   — run the overlay's repair protocol (Chord's table
#:                   rebuild over the live membership); no-op elsewhere.
EVENT_KINDS = (
    "crash",
    "revive",
    "link_fail",
    "region_fail",
    "targeted",
    "byzantine",
    "repair",
    "stabilize",
)


@dataclass(frozen=True)
class FaultEvent:
    """One typed entry of a fault timeline.

    Parameters
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    level:
        Fraction/probability parameter in ``[0, 1]`` (meaning depends on the
        kind; unused by ``targeted``/``repair``/``stabilize``).
    count:
        Victim count for ``targeted`` events.
    """

    kind: str
    level: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown fault event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        ensure_probability(self.level, "level")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, seeded fault timeline.

    The seed controls every random draw the driver makes; each event draws
    from its own derived stream (``spawn_rng(seed, "faults", index, kind)``),
    so inserting or removing one event does not perturb the draws of the
    others.
    """

    events: tuple[FaultEvent, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def event_rng(self, index: int) -> np.random.Generator:
        """The derived RNG stream for the event at ``index``."""
        event = self.events[index]
        return spawn_rng(self.seed, "faults", index, event.kind)


def degradation_schedule(
    intensity: float,
    seed: int = 0,
    targeted_count: int | None = None,
    include_stabilize: bool = True,
) -> FaultSchedule:
    """The canonical escalating schedule the ``degradation`` scenario sweeps.

    One intensity knob drives every phase: independent link failures at
    ``intensity``, a crash wave at half of it, a targeted attack scaled to
    it, a correlated region outage, then the overlay's repair protocol
    (``stabilize``) and finally a full ``repair`` — so the degradation curve
    shows damage accumulating *and* the recovery machinery clawing it back.
    """
    ensure_probability(intensity, "intensity")
    if targeted_count is None:
        targeted_count = max(1, int(round(8 * intensity)))
    events = [
        FaultEvent("link_fail", level=intensity),
        FaultEvent("crash", level=round(intensity / 2, 10)),
        FaultEvent("targeted", count=targeted_count),
        FaultEvent("region_fail", level=round(intensity / 2, 10)),
    ]
    if include_stabilize:
        events.append(FaultEvent("stabilize"))
    events.append(FaultEvent("repair"))
    return FaultSchedule(events=tuple(events), seed=seed)


def random_schedule(
    seed: int,
    length: int = 8,
    max_level: float = 0.4,
    kinds: tuple[str, ...] = EVENT_KINDS,
) -> FaultSchedule:
    """A seeded random timeline, for property tests and CI identity checks.

    Draws ``length`` events with kinds from ``kinds`` and levels uniform in
    ``[0, max_level]``; ``targeted`` counts are small (1..4).  Byzantine
    events are included by default — they are report-only, so identity
    checks see them as no-ops, which is itself worth covering.
    """
    rng = spawn_rng(seed, "fault-schedule")
    events = []
    for _ in range(length):
        kind = kinds[int(rng.integers(len(kinds)))]
        events.append(
            FaultEvent(
                kind=kind,
                level=float(round(rng.random() * max_level, 6)),
                count=int(rng.integers(1, 5)),
            )
        )
    return FaultSchedule(events=tuple(events), seed=seed)
