"""Measurement: per-run metric collection and summary statistics.

:class:`~repro.metrics.collector.MetricsCollector` receives events from the
routing/traffic layers during a run; at the end it is combined with the
radios' energy meters into a :class:`~repro.metrics.collector.RunMetrics`
holding everything the paper's figures plot: per-node energy, variance,
PDR, average delay, energy-per-bit, normalized routing overhead and role
numbers.
"""

from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.metrics.lifetime import (
    LifetimeReport,
    lifetime_from_metrics,
    project_lifetime,
)
from repro.metrics.role import RoleTracker
from repro.metrics.stats import (
    confidence_interval_95,
    mean,
    sample_variance,
)

__all__ = [
    "LifetimeReport",
    "MetricsCollector",
    "RoleTracker",
    "RunMetrics",
    "lifetime_from_metrics",
    "project_lifetime",
    "confidence_interval_95",
    "mean",
    "sample_variance",
]
