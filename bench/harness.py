"""Repetitions, timing, digests and result stamping.

Everything here observes the program from outside: it builds clusters
through ``MalacologyCluster.build``, reads the host clock around public
calls, and reads ``net.stats()`` and client latency trackers afterwards.
A timed repetition runs with every observer plane forced off.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.provenance import git_sha
from repro.core import MalacologyCluster
from repro.profiling import (WallClockProfiler, install_profiler,
                             peak_rss_bytes)

from bench import ROOT

#: Observer planes a repetition can switch on (group (d) rows).
PLANES = ("sanitize", "profile_sim", "profile_wall", "mgr", "spans",
          "changelog")
#: Planes that add daemons of their own: their traffic shows in
#: ``net.stats()``, so their rows compare the digest without it.
PLANES_WITH_TRAFFIC = frozenset({"mgr", "changelog"})

#: setup_s is the median of at least this many set-ups: a run times two
#: to four repetitions, too few for a steady median.
SETUP_SAMPLES = 5
#: Untimed cold repetition before the timed ones, as a share of size.
WARMUP_SCALE = 0.1
#: The traced repetition's share of the timed size.  cProfile costs
#: 3-6x here, so the timed size does not fit the run-time cap.
TRACE_SCALE = 0.25


class CheckFailed(Exception):
    """A workload's outputs were wrong; fails the run."""


@dataclass
class Outcome:
    """What one repetition's operations did, read after it ran."""

    attempted: int
    failed: int
    #: Simulated seconds per completed op.
    latencies: List[float]
    #: Simulated seconds the ops ran over (sim_ops_per_s divides by it).
    sim_s: float
    #: Workload-specific numbers worth recording (not metrics).
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def done(self) -> int:
        return self.attempted - self.failed


@dataclass
class Rep:
    setup_s: float
    host_s: float
    outcome: Outcome
    #: net.stats() messages sent during the timed phase.
    msgs: int
    digest: str
    #: The digest without net.stats(), for PLANES_WITH_TRAFFIC.
    op_digest: str


def build_cluster(planes: FrozenSet[str], **kwargs: Any) -> MalacologyCluster:
    """``MalacologyCluster.build`` with exactly ``planes`` attached.

    Sanitizers and profilers are forced off unless named, whatever the
    MALACOLOGY_* environment says.
    """
    cluster = MalacologyCluster.build(
        sanitize="sanitize" in planes, profile=False,
        mgr="mgr" in planes, changelog="changelog" in planes, **kwargs)
    if "profile_sim" in planes:
        install_profiler(cluster.sim, wall=False)
    if "profile_wall" in planes:
        cluster.sim.wall_profiler = WallClockProfiler(cluster.sim)
    return cluster


def spanned(client: Any, gen: Any, name: str, planes: FrozenSet[str]) -> Any:
    """The op generator, under a root span when the spans plane is on."""
    return client.traced(gen, name) if "spans" in planes else gen


def _digest(*parts: Any) -> str:
    blob = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def timed_setup(workload: Any, seed: int, scale: float,
                planes: FrozenSet[str]) -> Tuple[Any, float]:
    """Build and prime a fresh cluster; returns it and the host seconds."""
    gc.collect()
    t0 = perf_counter()
    ctx = workload.setup(seed, scale, frozenset(planes))
    return ctx, perf_counter() - t0


def rep(workload: Any, seed: int, scale: float,
        planes: Optional[FrozenSet[str]] = None, verify: bool = True,
        profiler: Any = None) -> Rep:
    """One repetition on a fresh cluster: set up, time ``run``, collect."""
    planes = workload.planes if planes is None else planes
    ctx, setup_s = timed_setup(workload, seed, scale, planes)
    net = ctx.cluster.net
    sent = net.messages_sent
    t0 = perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        workload.run(ctx)
    finally:
        if profiler is not None:
            profiler.disable()
    host_s = perf_counter() - t0
    msgs = net.messages_sent - sent
    outcome = workload.collect(ctx)
    ops = [outcome.attempted, outcome.failed, repr(ctx.cluster.sim.now),
           repr(sum(outcome.latencies))]
    result = Rep(setup_s=setup_s, host_s=host_s, outcome=outcome,
                 msgs=msgs, digest=_digest(ops, net.stats()),
                 op_digest=_digest(ops))
    if verify:  # after the digest: the check itself sends messages
        workload.verify(ctx, outcome)
    return result


def percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list, 0 <= q <= 1."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _spread(values: List[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def stamp(workload: Any, seed: int, scale: float) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    return {"git_sha": git_sha(str(ROOT)),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "scale": scale, "sizes": workload.sizes(scale)}


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def measure(workload: Any, seed: int, scale: float = 1.0, reps: int = 3,
            seconds: Optional[float] = None,
            import_s: float = 0.0) -> Dict[str, Any]:
    """The end-to-end result: warm up, time repetitions, report medians.

    Timed repetitions repeat the same seed on fresh clusters.  With
    ``seconds`` they continue until that much host time was measured
    (at least one); otherwise there are ``reps`` of them.  The first
    one's outputs are checked; the others must match its ``sim_digest``.
    Set-up is repeated on its own until there are SETUP_SAMPLES of it.
    """
    rep(workload, seed, scale * WARMUP_SCALE)
    first: Optional[Rep] = None
    host: List[float] = []
    setups: List[float] = []
    while (sum(host) < seconds if seconds is not None
           else len(host) < reps):
        run = rep(workload, seed, scale, verify=first is None)
        host.append(run.host_s)
        setups.append(run.setup_s)
        if first is None:
            first = run
        elif run.digest != first.digest:
            raise CheckFailed(
                f"{workload.name}: sim_digest differs across repetitions "
                f"of seed {seed}: {first.digest} then {run.digest}")
        # Only the first repetition's samples stay alive, so that
        # peak_rss_mb does not grow with the number of repetitions.
        del run
    while len(setups) < SETUP_SAMPLES:
        setups.append(timed_setup(workload, seed, scale,
                                  workload.planes)[1])
    out = first.outcome
    if not out.latencies:
        raise CheckFailed(f"{workload.name}: no operation completed")
    lat = sorted(out.latencies)
    metrics = {
        "host_ops_per_s": metric(
            statistics.median(out.done / h for h in host), "ops/s"),
        "sim_ops_per_s": metric(out.done / out.sim_s, "ops/s"),
        "sim_lat_p50_ms": metric(percentile(lat, 0.50) * 1e3, "ms"),
        "sim_lat_p99_ms": metric(percentile(lat, 0.99) * 1e3, "ms"),
        "failed_ops_frac": metric(out.failed / out.attempted, "fraction"),
        "peak_rss_mb": metric(peak_rss_bytes() / 2**20, "MiB"),
        "setup_s": metric(import_s + statistics.median(setups), "s"),
    }
    return {
        "workload": workload.name, "kind": "run",
        "stamp": {**stamp(workload, seed, scale), "reps": len(host),
                  "rep_spread": _spread(host),
                  "setup_spread": _spread(setups),
                  "lat_samples": len(lat)},
        "correct": True, "attempted": out.attempted, "failed": out.failed,
        "sim_digest": first.digest, "metrics": metrics,
        "detail": {**out.detail, "host_s": host, "import_s": import_s,
                   "msgs": first.msgs},
    }


def observe(workload: Any, seed: int, scale: float) -> Dict[str, Any]:
    """Group (d): host time with each plane on / off, one run each.

    Runs at ``workload.observe_scale`` of the timed size, because the
    wall-clock profiler alone costs up to 40x.  The reference is the
    faster of two bare runs, one before and one after the planes, so a
    cold first run or a drifting host does not read as a speed-up.  A
    plane the workload runs with by default (``changelog`` on
    ``fs_create``) is measured by switching it off instead.  Each row
    also says whether the plane left the simulated behaviour unchanged.
    """
    scale *= workload.observe_scale
    base = frozenset(workload.planes)
    bare = rep(workload, seed, scale)
    others = {plane: rep(workload, seed, scale, planes=base ^ {plane},
                         verify=False) for plane in PLANES}
    bare_s = min(bare.host_s, rep(workload, seed, scale).host_s)
    metrics: Dict[str, Any] = {}
    changed: List[str] = []
    for plane, other in others.items():
        on_s, off_s = ((bare_s, other.host_s) if plane in base
                       else (other.host_s, bare_s))
        metrics[f"observer.{plane}.slowdown"] = metric(on_s / off_s,
                                                       "ratio")
        same = (bare.op_digest == other.op_digest
                if plane in PLANES_WITH_TRAFFIC
                else bare.digest == other.digest)
        if not same:
            changed.append(plane)
    return {"metrics": metrics,
            "detail": {"observe_sizes": workload.sizes(scale),
                       "observe_bare_host_s": bare_s,
                       "observers_changing_digest": changed}}
