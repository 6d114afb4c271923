"""The traced run: one repetition under cProfile, aggregated by layer.

One mechanism, no hand-placed wrappers: every function cProfile saw is
assigned to a layer from its file name, and its ``tottime`` is that
layer's self time.  The same profile gives the seed-stable counts per
op (group (b)) and the caller split of ``copy.deepcopy``.  End-to-end
numbers never come from here.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Dict, List, Optional, Tuple

from bench import ROOT
from bench.harness import (TRACE_SCALE, WARMUP_SCALE, CheckFailed, metric,
                           observe, rep, stamp)
from bench.micro import micro

#: Layer names are module names under ``repro``; ``workloads`` also
#: takes the benchmark's own client loops, ``stdlib_copy`` is
#: ``copy.py``, and ``other`` is the rest (``repro.core``, ``util``,
#: ``errors``, the interpreter's own modules).
LAYERS = ("sim", "msg", "telemetry", "mds", "rados", "objclass", "store",
          "monitor", "mantle", "zlog", "changelog", "workloads",
          "stdlib_copy", "other")
#: Layers whose inclusive ``copy.deepcopy`` time is reported.
COPY_CALLERS = ("msg", "rados", "objclass", "store")
#: Source compiled from strings at run time, by file-name prefix.
_COMPILED = {"<objclass:": "objclass", "<policy:": "mantle"}

_REPRO = os.path.join(str(ROOT), "src", "repro") + os.sep
_BENCH = os.path.join(str(ROOT), "bench") + os.sep

Func = Tuple[str, int, str]


def layer_of(func: Func) -> Optional[str]:
    """The layer a profiled function's code lives in.

    ``None`` for C functions, which have no file: their time goes to
    the layer that called them.
    """
    path = func[0]
    if path == "~":
        return None
    if path.startswith(_REPRO):
        package = path[len(_REPRO):].split(os.sep)[0]
        return package if package in LAYERS else "other"
    if path.startswith(_BENCH):
        return "workloads"
    if os.path.basename(path) == "copy.py":
        return "stdlib_copy"
    for prefix, layer in _COMPILED.items():
        if path.startswith(prefix):
            return layer
    return "other"


def _short(func: Func) -> str:
    path, line, name = func
    if path.startswith(str(ROOT) + os.sep):
        path = path[len(str(ROOT)) + 1:]
    return f"{path}:{line} {name}"


def attribute(profile: cProfile.Profile, ops: int,
              msgs: int) -> Dict[str, Any]:
    """Layer table, counts per op and deepcopy split of one profile."""
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_layer: Dict[str, List[Tuple[float, Func]]] = {m: [] for m in LAYERS}
    events = commits = copy_calls = copy_nodes = 0
    copy_from = dict.fromkeys(LAYERS, 0.0)
    for func, (prim, calls, tottime, _, callers) in stats.items():
        layer = layer_of(func)
        if layer is None:
            charged = 0.0
            for caller, (_, _, caller_tt, _) in callers.items():
                self_s[layer_of(caller) or "other"] += caller_tt
                charged += caller_tt
            self_s["other"] += tottime - charged
            continue
        self_s[layer] += tottime
        by_layer[layer].append((tottime, func))
        name = func[2]
        if layer == "sim" and name == "schedule":
            events += calls
        elif layer == "store" and name == "commit":
            commits += calls
        elif layer == "stdlib_copy" and name == "deepcopy":
            copy_calls, copy_nodes = prim, calls
            for caller, (_, _, _, caller_ct) in callers.items():
                copy_from[layer_of(caller) or "other"] += caller_ct
    total = sum(self_s.values())
    metrics = {f"layer.{m}.self_share": metric(self_s[m] / total, "share")
               for m in LAYERS}
    for m in COPY_CALLERS:
        metrics[f"stdlib_copy.from_{m}_share"] = metric(
            copy_from[m] / total, "share")
    metrics.update({
        "sim.events_per_op": metric(events / ops, "count"),
        "sim.msgs_per_op": metric(msgs / ops, "count"),
        "stdlib_copy.deepcopy_calls_per_op": metric(
            copy_calls / ops, "count"),
        "stdlib_copy.deepcopy_nodes_per_op": metric(
            copy_nodes / ops, "count"),
        "store.commits_per_op": metric(commits / ops, "count"),
    })
    top = {m: [{"function": _short(f), "self_s": t}
               for t, f in sorted(by_layer[m], reverse=True)[:5]]
           for m in LAYERS if by_layer[m]}
    return {"metrics": metrics, "top_functions": top,
            "traced_self_s": total,
            "deepcopy_inclusive_s_by_caller": {
                m: t for m, t in copy_from.items()
                if t and m != "stdlib_copy"}}


def per_layer(workload: Any, seed: int, scale: float) -> Dict[str, Any]:
    """Every per-layer metric for one workload, as one result.

    The micro rows (a) run first, in a process that has done nothing
    else, as under ``python -m bench micro``.  Then, after a cold
    repetition as before the timed ones: a bare and a profiled
    repetition at the trace size with the same seed (groups (b) and
    (c)), and the observer runs (d).
    """
    metrics = micro(scale)
    rep(workload, seed, scale * WARMUP_SCALE)
    trace_scale = scale * TRACE_SCALE
    bare = rep(workload, seed, trace_scale)
    profile = cProfile.Profile()
    traced = rep(workload, seed, trace_scale, verify=False,
                 profiler=profile)
    if traced.digest != bare.digest:
        raise CheckFailed(f"{workload.name}: the traced repetition's "
                          "sim_digest differs from the bare one")
    table = attribute(profile, bare.outcome.done, bare.msgs)
    observed = observe(workload, seed, scale)
    metrics.update(table.pop("metrics"))
    metrics["trace.overhead_ratio"] = metric(
        traced.host_s / bare.host_s, "ratio")
    metrics.update(observed["metrics"])
    return {
        "workload": workload.name, "kind": "trace",
        "stamp": stamp(workload, seed, scale), "correct": True,
        "attempted": bare.outcome.attempted, "failed": bare.outcome.failed,
        "sim_digest": bare.digest, "metrics": metrics,
        "detail": {"trace_sizes": workload.sizes(trace_scale),
                   "bare_host_s": bare.host_s,
                   "traced_host_s": traced.host_s,
                   **table, **observed["detail"]},
    }
