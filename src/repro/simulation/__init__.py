"""Workload generators and the link-latency model for the round-based scenarios.

The paper's evaluation is an application-level simulation in synchronous
rounds; :mod:`repro.scenarios.rounds` drives the rounds, and this package
supplies what a round consumes.

Modules
-------
``latency``    the log-normal link-latency model
``workload``   workload generators: lookup traffic, churn
"""

from repro.simulation.latency import LogNormalLatency
from repro.simulation.workload import ChurnEvent, ChurnWorkload, LookupWorkload

__all__ = [
    "LogNormalLatency",
    "LookupWorkload",
    "ChurnWorkload",
    "ChurnEvent",
]
