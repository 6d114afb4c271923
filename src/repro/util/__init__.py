"""Shared utilities: statistics and small helpers."""

from repro.util.stats import (
    Cdf,
    OnlineStats,
    ThroughputSeries,
    percentile,
)

__all__ = [
    "Cdf",
    "OnlineStats",
    "ThroughputSeries",
    "percentile",
]
