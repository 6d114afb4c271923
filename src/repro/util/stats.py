"""Measurement primitives used by the evaluation harness.

The paper's figures are latency CDFs (Figures 7 and 8), throughput
time-series (Figures 9 and 12), and bar charts of steady-state
throughput (Figures 6 and 10).  These classes collect exactly those
shapes from simulated runs without pulling in plotting dependencies.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(samples: Sequence[float], pct: float) -> float:
    """Return the ``pct``-th percentile of ``samples`` (0 <= pct <= 100).

    Uses linear interpolation between closest ranks, matching
    ``numpy.percentile``'s default behaviour so results line up with the
    paper's Jupyter analyses.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi or ordered[lo] == ordered[hi]:
        # Exact rank, or equal bracketing values: no interpolation —
        # avoids float round-off breaking quantile monotonicity.
        return ordered[lo]
    lo_v, hi_v = ordered[lo], ordered[hi]
    # This form stays monotone in the fraction under float rounding;
    # min() keeps the rounded result inside the bracket.
    return min(hi_v, lo_v + (hi_v - lo_v) * (rank - lo))


class Cdf:
    """An empirical cumulative distribution function.

    Built once from samples, then queried for quantiles or evaluated at
    arbitrary points.  Used to regenerate Figure 7 (sequencer latency
    CDF) and Figure 8 (interface-propagation latency CDF).
    """

    def __init__(self, samples: Iterable[float]):
        self._sorted: List[float] = sorted(samples)
        if not self._sorted:
            raise ValueError("Cdf requires at least one sample")

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def min(self) -> float:
        return self._sorted[0]

    @property
    def max(self) -> float:
        return self._sorted[-1]

    def at(self, value: float) -> float:
        """Fraction of samples <= ``value``."""
        idx = bisect.bisect_right(self._sorted, value)
        return idx / len(self._sorted)

    def quantile(self, q: float) -> float:
        """Value at cumulative fraction ``q`` (0 <= q <= 1)."""
        return percentile(self._sorted, q * 100.0)

    def series(self, points: int = 100) -> List[Tuple[float, float]]:
        """Evenly spaced (value, fraction) pairs for table output."""
        if points < 2:
            raise ValueError("need at least two points")
        out = []
        for i in range(points):
            q = i / (points - 1)
            out.append((self.quantile(q), q))
        return out


class DecayCounter:
    """Exponentially decayed event counter (CephFS's DecayCounter).

    The MDS load tracker's request, busy-time and popularity metrics.
    """

    def __init__(self, halflife: float = 5.0):
        if halflife <= 0:
            raise ValueError("halflife must be positive")
        self._lambda = math.log(2.0) / halflife
        self._value = 0.0
        self._last = 0.0

    def hit(self, now: float, amount: float = 1.0) -> None:
        self._decay_to(now)
        self._value += amount

    def get(self, now: float) -> float:
        self._decay_to(now)
        return self._value

    def peek(self, now: float) -> float:
        """Read the decayed value WITHOUT updating internal state.

        ``get`` folds the elapsed decay into ``_value``, which is
        correct but not float-exact across different call patterns
        (``exp(a)·exp(b) != exp(a+b)`` in floats).  Observability code
        (mgr gauges) must use ``peek`` so that sampling a counter more
        or less often never changes the values the owning daemon later
        computes — determinism of seeded runs depends on it.
        """
        dt = now - self._last
        if dt <= 0:
            return self._value
        return self._value * math.exp(-self._lambda * dt)

    def scale(self, factor: float) -> None:
        """Scale the counter (used when splitting load across exports)."""
        self._value *= factor

    def _decay_to(self, now: float) -> None:
        dt = now - self._last
        if dt > 0:
            self._value *= math.exp(-self._lambda * dt)
            self._last = now


class OnlineStats:
    """Single-pass mean/variance/min/max accumulator (Welford)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)


class Histogram:
    """Fixed-width bucket histogram over a closed range.

    Values outside the range are clamped into the edge buckets so no
    sample is silently dropped.
    """

    def __init__(self, lo: float, hi: float, buckets: int = 50):
        if hi <= lo:
            raise ValueError("hi must exceed lo")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.lo = lo
        self.hi = hi
        self.counts = [0] * buckets
        self._width = (hi - lo) / buckets

    def add(self, value: float) -> None:
        idx = int((value - self.lo) / self._width)
        idx = max(0, min(len(self.counts) - 1, idx))
        self.counts[idx] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)


class ThroughputSeries:
    """Bins completion events into fixed windows of simulated time.

    Produces the ops/second-over-time curves of Figures 9 and 12.  Each
    recorded event lands in the window ``floor(t / window)``; reading
    the series fills empty windows with zero so plots are continuous.
    """

    def __init__(self, window: float = 1.0):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._bins: Dict[int, int] = {}

    def record(self, t: float, count: int = 1) -> None:
        if t < 0:
            raise ValueError("negative timestamp")
        self._bins[int(t // self.window)] = (
            self._bins.get(int(t // self.window), 0) + count
        )

    @property
    def total(self) -> int:
        return sum(self._bins.values())

    def series(self) -> List[Tuple[float, float]]:
        """(window start time, ops/sec) pairs covering the full span."""
        if not self._bins:
            return []
        last = max(self._bins)
        return [
            (i * self.window, self._bins.get(i, 0) / self.window)
            for i in range(last + 1)
        ]

    def mean_rate(self, start: float = 0.0, end: float = math.inf) -> float:
        """Average ops/second over [start, end) of simulated time."""
        if not self._bins:
            return 0.0
        total = 0
        lo = int(start // self.window)
        hi_bin = max(self._bins)
        hi = min(hi_bin, int(end // self.window)) if end != math.inf else hi_bin
        windows = hi - lo + 1
        if windows <= 0:
            return 0.0
        for i in range(lo, hi + 1):
            total += self._bins.get(i, 0)
        return total / (windows * self.window)
