"""Per-daemon performance counter registry (Ceph's PerfCounters).

Every :class:`~repro.msg.daemon.Daemon` owns one :class:`PerfCounters`
instance.  Three metric kinds cover what the daemons need to report:

* **counters** — monotonic event counts (``perf.incr``), like Ceph's
  ``add_u64_counter``;
* **gauges** — point-in-time values computed on dump from a callable
  (``perf.gauge_fn``), like ``add_u64``;
* **latency trackers** — duration distributions (``perf.time``), like
  ``add_time_avg`` plus an optional full sample tape for exact tail
  quantiles (the Figure 7 CDF needs p99.99 and max, which summary
  statistics cannot recover).

All values are volatile daemon state: a crash resets the registry
(:meth:`PerfCounters.reset`), matching the discipline that anything
surviving failure must live in RADOS or the monitor store.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.util.stats import OnlineStats, percentile


class LatencyTracker:
    """Duration distribution for one operation name.

    Always keeps single-pass summary statistics; with ``retain=True``
    it also keeps every sample so exact quantiles (and external CDF
    construction) are possible.  Retention is reserved for the few
    client-side paths benchmarks read (``seq.next``, ``zlog.append``);
    dispatch-level RPC latencies stay summary-only to bound memory.
    """

    __slots__ = ("stats", "samples", "retain")

    def __init__(self, retain: bool = False):
        self.stats = OnlineStats()
        self.retain = retain
        self.samples: List[float] = []

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def sum(self) -> float:
        return self.stats.mean * self.stats.count

    def observe(self, duration: float) -> None:
        self.stats.add(duration)
        if self.retain:
            self.samples.append(duration)

    def quantile(self, q: float) -> float:
        """Exact quantile; only available on retaining trackers.

        Defined over the full closed range of inputs: an empty tracker
        answers 0.0 (the same "nothing recorded" value ``to_dict``
        reports for min/max), a single sample answers that sample for
        every ``q``, and the edges are exact — ``quantile(0.0)`` is the
        minimum, ``quantile(1.0)`` the maximum.  ``q`` outside [0, 1]
        raises ``ValueError``.
        """
        if not self.retain:
            raise ValueError("quantile() needs a retain=True tracker")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            return 0.0
        return percentile(self.samples, q * 100.0)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.stats.count,
            "sum": self.sum,
            "mean": self.stats.mean,
            "min": self.stats.min if self.stats.count else 0.0,
            "max": self.stats.max if self.stats.count else 0.0,
        }
        if self.retain and self.samples:
            out["p50"] = self.quantile(0.50)
            out["p99"] = self.quantile(0.99)
        return out


class PerfCounters:
    """The counter/gauge/latency registry one daemon owns.

    Metrics are created lazily on first touch — instrumentation points
    never need a registration step, so adding a counter to a code path
    is one line.  ``dump()`` exports plain JSON-safe dicts; that is the
    admin-socket wire format benchmarks and tests consume.
    """

    def __init__(self, owner: str = ""):
        self.owner = owner
        self._counters: Dict[str, float] = {}
        self._gauge_fns: Dict[str, Callable[[], Any]] = {}
        self._latency: Dict[str, LatencyTracker] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: float = 1.0) -> None:
        """Bump a monotonic counter."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def gauge_fn(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a gauge computed at dump time (queue depths etc.).

        Survives :meth:`reset` — the *binding* is configuration, only
        the observed values are volatile.
        """
        self._gauge_fns[name] = fn

    def time(self, name: str, duration: float,
             retain: bool = False) -> None:
        """Record one operation duration (simulated seconds)."""
        self.latency(name, retain=retain).observe(duration)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, name: str) -> float:
        """Current value of a counter (0.0 if never bumped)."""
        return self._counters.get(name, 0.0)

    def latency(self, name: str, retain: bool = False) -> LatencyTracker:
        """The tracker for ``name``, created on first access.

        ``retain`` only applies at creation; an existing tracker keeps
        its original retention setting.
        """
        tracker = self._latency.get(name)
        if tracker is None:
            tracker = self._latency[name] = LatencyTracker(retain=retain)
        return tracker

    def samples(self, name: str) -> List[float]:
        """Retained latency samples for ``name`` ([] if none)."""
        tracker = self._latency.get(name)
        return list(tracker.samples) if tracker else []

    def dump(self) -> Dict[str, Any]:
        """Export everything as a JSON-safe dict (``perf dump``)."""
        return {
            "owner": self.owner,
            "counters": dict(self._counters),
            "gauges": {name: fn() for name, fn in self._gauge_fns.items()},
            "latency": {name: t.to_dict()
                        for name, t in self._latency.items()},
        }

    def nonzero(self) -> bool:
        """True once any counter or latency tracker has recorded."""
        return (any(v for v in self._counters.values())
                or any(t.count for t in self._latency.values()))

    def reset(self) -> None:
        """Clear all recorded values (``perf reset`` / crash).

        Gauge-function bindings survive (they are wiring, not data);
        retention settings of latency trackers are rebuilt lazily on
        next use.
        """
        self._counters.clear()
        self._latency.clear()
