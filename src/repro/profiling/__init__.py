"""Kernel performance observability (``repro.profiling``).

Three planes, all built from the system's own interfaces (the
Malacology discipline: instrumentation is a service grown from
existing machinery, not a fork of it):

* **simulation plane** — :class:`SimProfiler`: deterministic kernel
  event counts, queue and ready-batch high-water marks; ``profile.dump``
  joins them with the per-handler counts and simulated time each
  daemon's ``rpc.<method>`` telemetry already holds.  Schedule-identity
  pinned: a profiled run replays byte-identical to an unprofiled one.
* **host plane** — :class:`WallClockProfiler`: real nanoseconds and
  allocation-block deltas attributed across the heapq + generator
  trampoline (the hot path ROADMAP item 1 rewrites), with top-N
  hotspot reports and flamegraph-ready collapsed stacks.  The one
  sanctioned MAL001-waived wall-clock consumer outside the kernel.
* **export plane** — :func:`chrome_trace` / :func:`write_chrome_trace`:
  the causal span trees plus the kernel tape as a Perfetto-loadable
  ``trace.json``.

Enable with ``MalacologyCluster.build(profile=True)``; query anywhere
via the ``profile.status`` / ``profile.dump`` admin commands;
Prometheus kernel gauges ride the mgr's ``metrics.export``.
"""

from repro.profiling.admin import (
    PROFILE_COMMANDS,
    install_profile_commands,
    profile_dump,
    profile_status,
)
from repro.profiling.hostclock import (
    host_alloc_blocks,
    host_perf_ns,
    host_process_ns,
    peak_rss_bytes,
)
from repro.profiling.perfetto import chrome_trace, write_chrome_trace
from repro.profiling.simprofiler import SimProfiler
from repro.profiling.wallprofiler import WallClockProfiler, WallStat

__all__ = [
    "PROFILE_COMMANDS",
    "SimProfiler",
    "WallClockProfiler",
    "WallStat",
    "chrome_trace",
    "host_alloc_blocks",
    "host_perf_ns",
    "host_process_ns",
    "install_profile_commands",
    "install_profiler",
    "peak_rss_bytes",
    "profile_dump",
    "profile_status",
    "write_chrome_trace",
]


def install_profiler(sim, wall: bool = True) -> SimProfiler:
    """Attach the profiler planes to a simulator (idempotent).

    The simulation plane always installs; ``wall=False`` skips the
    host plane for runs that only want deterministic counts.  Returns
    the :class:`SimProfiler` (reused if one is already attached).
    """
    if sim.profiler is None:
        sim.profiler = SimProfiler(sim)
    if wall and sim.wall_profiler is None:
        sim.wall_profiler = WallClockProfiler(sim)
    return sim.profiler
