"""Workload generators and link-latency models for the round-based scenarios.

The paper's evaluation is an application-level simulation in synchronous
rounds; :mod:`repro.scenarios.rounds` drives the rounds, and this package
supplies what a round consumes.

Modules
-------
``latency``    link-latency models (constant, uniform, log-normal)
``workload``   workload generators: lookup traffic, churn
"""

from repro.simulation.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.simulation.workload import ChurnEvent, ChurnWorkload, LookupWorkload

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "LookupWorkload",
    "ChurnWorkload",
    "ChurnEvent",
]
