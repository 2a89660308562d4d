"""QoS metrics: violation volume (contribution C3), percentiles, timeseries.

The paper's headline metric is **violation volume** — the
magnitude-duration product of QoS violations, i.e. the area of the
latency-vs-time curve above the QoS target (Fig. 3).  It unifies tail
latency (magnitude only) and violation frequency (duration only).
"""

from repro.metrics.violation import (
    excess_latency,
    violation_duration,
    violation_volume,
)
from repro.metrics.timeseries import StepSeries
from repro.metrics.summary import LatencySummary, summarize

__all__ = [
    "LatencySummary",
    "StepSeries",
    "excess_latency",
    "summarize",
    "violation_duration",
    "violation_volume",
]
