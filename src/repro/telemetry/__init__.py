"""Cluster telemetry: perf counters, RPC tracing, admin commands.

The paper's thesis is that storage internals become reusable once they
are *exposed*; this package is how the reproduction exposes its own.
Three pieces, mirroring what real Ceph ships:

* :class:`PerfCounters` — a per-daemon registry of counters, gauges
  and latency trackers (Ceph's ``PerfCounters`` /
  ``perf dump``).
* :class:`TraceCollector` / :class:`SpanContext` — causally-ordered
  span trees for one client op across client → MDS → monitor → OSD
  hops, stitched through the trace context on every RPC envelope.
* :func:`install_telemetry_commands` — the admin-socket command
  surface (``telemetry.dump`` / ``telemetry.reset`` /
  ``telemetry.trace``) registered on every daemon.
"""

from repro.telemetry.admin import install_telemetry_commands
from repro.telemetry.counters import LatencyTracker, PerfCounters
from repro.telemetry.trace import Span, SpanContext, TraceCollector

__all__ = [
    "LatencyTracker",
    "PerfCounters",
    "Span",
    "SpanContext",
    "TraceCollector",
    "install_telemetry_commands",
]
