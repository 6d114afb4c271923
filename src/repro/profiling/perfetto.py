"""Chrome trace-event (Perfetto) export of causal spans + kernel tape.

Converts the cluster's existing observability state — the causal span
trees in :class:`repro.telemetry.trace.TraceCollector` plus the
deterministic kernel samples from :class:`SimProfiler` — into the
Chrome trace-event JSON format, loadable in https://ui.perfetto.dev
(or ``chrome://tracing``).  Mapping:

* each **daemon** becomes a process (``pid``, named via ``process_name``
  metadata events); the synthetic ``kernel`` process is pid 0;
* each **span** becomes a complete (``ph: "X"``) event on the daemon's
  process, with the trace id as the ``tid`` track so one RPC tree
  reads as one lane per daemon;
* the profiler's **queue-depth tape** becomes a counter (``ph: "C"``)
  track under the kernel process.

Simulated seconds map to trace microseconds directly (the format's
``ts`` unit), so a 30 s simulated run renders as 30 s in Perfetto.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

#: pid reserved for the synthetic kernel process.
KERNEL_PID = 0


def _sec_to_us(t: float) -> float:
    return t * 1e6


def chrome_trace(sim: Any) -> Dict[str, Any]:
    """Build the trace-event document for one simulator's run."""
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}

    def pid_of(daemon: str) -> int:
        pid = pids.get(daemon)
        if pid is None:
            pid = pids[daemon] = len(pids) + 1  # 0 is the kernel
        return pid

    collector = sim.trace_collector
    open_spans = 0
    if collector is not None:
        for trace_id in collector.trace_ids():
            for span in collector.spans(trace_id):
                if span.end is None:
                    open_spans += 1
                    continue
                args: Dict[str, Any] = {"span_id": span.span_id,
                                        "trace_id": span.trace_id}
                if span.parent_id is not None:
                    args["parent_id"] = span.parent_id
                if span.src:
                    args["src"] = span.src
                if span.error:
                    args["error"] = span.error
                events.append({
                    "name": span.name,
                    "cat": span.kind or "rpc",
                    "ph": "X",
                    "ts": _sec_to_us(span.start),
                    "dur": _sec_to_us(span.end - span.start),
                    "pid": pid_of(span.daemon),
                    "tid": span.trace_id,
                    "args": args,
                })

    profiler = sim.profiler
    if profiler is not None:
        for when, depth in profiler.queue_samples:
            events.append({
                "name": "kernel.queue_depth",
                "ph": "C",
                "ts": _sec_to_us(when),
                "pid": KERNEL_PID,
                "args": {"depth": depth},
            })

    meta: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": KERNEL_PID,
        "args": {"name": "kernel"},
    }]
    for daemon in sorted(pids):
        meta.append({"name": "process_name", "ph": "M",
                     "pid": pids[daemon], "args": {"name": daemon}})

    other: Dict[str, Any] = {"sim_time": sim.now,
                             "open_spans_skipped": open_spans}
    if profiler is not None:
        other["kernel"] = profiler.status()
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(sim: Any, path: str,
                       doc: Optional[Dict[str, Any]] = None) -> str:
    """Serialize :func:`chrome_trace` (or a prebuilt doc) to ``path``."""
    if doc is None:
        doc = chrome_trace(sim)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
