"""Shared utilities: statistics and small helpers."""

from repro.util.stats import (
    Cdf,
    ThroughputSeries,
    percentile,
)

__all__ = [
    "Cdf",
    "ThroughputSeries",
    "percentile",
]
