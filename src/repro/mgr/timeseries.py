"""Fixed-capacity time series the manager keeps per scraped daemon.

The mgr's job is trend detection — "is the commit rate still moving?",
"did op latency regress against its own history?" — which needs a
bounded window of (simulated time, value) samples per metric, not an
unbounded log.  A :class:`MetricSeries` is a ring buffer over such
samples with rate/derivative queries; a :class:`DaemonSeries` holds one
ring per metric path, fed from successive ``telemetry.dump`` scrapes.

Metric paths are flat strings namespaced by kind, mirroring the dump
layout::

    counter:paxos.commit    gauge:pg.count    latency:rpc.mds_req:sum

Everything here is plain arithmetic on scraped values: no RNG, no
simulated time consumed — observing the cluster must never perturb it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

Sample = Tuple[float, float]


class MetricSeries:
    """Ring buffer of (time, value) samples for one metric.

    Recording the ``CAPACITY+1``-th sample drops the oldest.  Times
    must be non-decreasing (the mgr scrapes on a fixed period of the
    simulated clock, so they always are).
    """

    __slots__ = ("_samples",)

    CAPACITY = 256

    def __init__(self) -> None:
        self._samples: Deque[Sample] = deque(maxlen=self.CAPACITY)

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, t: float, value: float) -> None:
        last = self.latest()
        if last is not None and t < last[0]:
            raise ValueError(
                f"series time went backwards: {t} < {last[0]}")
        self._samples.append((t, value))

    def samples(self) -> List[Sample]:
        """All retained samples, oldest first."""
        return list(self._samples)

    def latest(self) -> Optional[Sample]:
        return self._samples[-1] if self._samples else None

    def window(self, since: float) -> List[Sample]:
        """Samples with time >= ``since``, oldest first."""
        return [s for s in self.samples() if s[0] >= since]

    # ------------------------------------------------------------------
    # Derivative queries
    # ------------------------------------------------------------------
    def delta(self, window: Optional[float] = None) -> float:
        """Counter increase across the window ("events in the window").

        Sums the steps between consecutive samples.  A drop means the
        daemon restarted and its counter began again at zero, so that
        step counts as a rise from zero, as Prometheus ``increase()``
        does.  ``window=None`` spans the whole ring.
        """
        return _increase(self._span(window))

    def rate(self, window: Optional[float] = None) -> float:
        """Per-second counter increase across the window (0.0 if
        degenerate)."""
        pts = self._span(window)
        if len(pts) < 2 or pts[-1][0] <= pts[0][0]:
            return 0.0
        return _increase(pts) / (pts[-1][0] - pts[0][0])

    def min_over(self, window: Optional[float] = None) -> float:
        """Smallest sample value across the window (0.0 when empty)."""
        pts = self._span(window)
        if not pts:
            return 0.0
        return min(v for _, v in pts)

    def _span(self, window: Optional[float]) -> List[Sample]:
        """The samples in the trailing window, oldest first."""
        latest = self.latest()
        if latest is None or window is None:
            return self.samples()
        return self.window(latest[0] - window)


def _increase(pts: List[Sample]) -> float:
    return sum((v1 - v0 if v1 >= v0 else v1
                for (_, v0), (_, v1) in zip(pts, pts[1:])), 0.0)


class DaemonSeries:
    """All retained series for one scraped daemon.

    ``observe_dump`` flattens one ``telemetry.dump`` payload into the
    per-path rings; non-numeric gauges are skipped (they are state, not
    signal).  Latency trackers contribute their sum and count, so the
    mean latency of any window is Δsum / Δcount.
    """

    def __init__(self) -> None:
        self._series: Dict[str, MetricSeries] = {}

    def paths(self) -> List[str]:
        return sorted(self._series)

    def series(self, path: str) -> MetricSeries:
        s = self._series.get(path)
        if s is None:
            s = self._series[path] = MetricSeries()
        return s

    def maybe(self, path: str) -> Optional[MetricSeries]:
        return self._series.get(path)

    def observe_dump(self, t: float, dump: Dict[str, Any]) -> None:
        for name, value in dump.get("counters", {}).items():
            self.series(f"counter:{name}").record(t, float(value))
        for name, value in dump.get("gauges", {}).items():
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                continue
            self.series(f"gauge:{name}").record(t, float(value))
        for name, tracker in dump.get("latency", {}).items():
            for field in ("sum", "count"):
                if field in tracker:
                    self.series(f"latency:{name}:{field}").record(
                        t, float(tracker[field]))
