"""Zero-overhead-when-disabled telemetry: spans, counters, histograms.

See :mod:`repro.telemetry.core` for the design; the usual import is::

    from repro import telemetry

    with telemetry.session() as tel:
        ...
        print(tel.render())
"""

from repro.telemetry.names import (
    METRIC_NAMES,
    MetricName,
    find_metric,
    metric_is_registered,
    render_glossary,
)
from repro.telemetry.core import (
    HOP_BUCKETS,
    MS_BUCKETS,
    POW2_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    SpanNode,
    Telemetry,
    current,
    enable,
    session,
    spanned,
)
from repro.telemetry.report import render_telemetry

__all__ = [
    "Counter",
    "Gauge",
    "HOP_BUCKETS",
    "Histogram",
    "METRIC_NAMES",
    "MS_BUCKETS",
    "MetricName",
    "POW2_BUCKETS",
    "SECONDS_BUCKETS",
    "SpanNode",
    "Telemetry",
    "current",
    "enable",
    "find_metric",
    "metric_is_registered",
    "render_glossary",
    "render_telemetry",
    "session",
    "spanned",
]
