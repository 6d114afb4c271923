"""The sanctioned host-clock boundary for the profiling subsystem.

Everything outside the simulation kernel is forbidden from reading the
host wall clock (lint rule MAL001): seeded replays must not depend on
how fast the host happens to run.  Profiling is the one deliberate
exception — attributing *real* time and allocations to the kernel's
hot path is its entire point — so every wall-clock read the profiler
makes funnels through this module, each carrying an explicit MAL001
waiver.  A negative test in ``tests/analysis`` pins that these waivers
are the only wall-clock uses outside ``sim/kernel.py``.

Nothing here ever feeds back into the simulation: readings are
recorded, reported, and compared, but no schedule decision consults
them — which is why a profiled run stays byte-identical in schedule to
an unprofiled one.
"""

from __future__ import annotations

import resource
import sys
import time


def host_perf_ns() -> int:
    """Monotonic host time in nanoseconds (profiler readings only)."""
    return time.perf_counter_ns()  # mal: disable=MAL001 -- sanctioned profiler wall-clock boundary; readings never feed back into the schedule


def host_alloc_blocks() -> int:
    """Currently allocated interpreter memory blocks.

    ``sys.getallocatedblocks`` is a cheap counter read (no tracemalloc
    overhead), good enough to attribute allocation churn per handler:
    the *delta* across a dispatch approximates objects the dispatch
    left alive plus transient garbage not yet collected.
    """
    return sys.getallocatedblocks()


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize
    to bytes so ``bench/`` results are comparable across hosts.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(rss)
    return int(rss) * 1024
