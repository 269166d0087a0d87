"""Deterministic fault-schedule injection (PR 8).

Fault timelines as data (:mod:`repro.faults.schedule`) replayed against any
overlay through the overlay's own observable mutators
(:mod:`repro.faults.driver`), so routing under an evolving fault process is
measurable on both engines with identical tables.
"""

from repro.faults.driver import FaultDriver
from repro.faults.schedule import (
    EVENT_KINDS,
    FaultEvent,
    FaultSchedule,
    degradation_schedule,
    random_schedule,
)

__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FaultDriver",
    "degradation_schedule",
    "random_schedule",
]
