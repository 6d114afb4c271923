"""Deterministic simulation-plane profiler.

Counts what the kernel *does* in simulated time: events dispatched
and cancelled, queue-depth and ready-batch high-water marks.  What the
daemons' handlers did lives in their own ``rpc.<method>`` telemetry,
which ``profile.dump`` reads (:mod:`repro.profiling.admin`).  Every
hook only reads kernel state and bumps plain Python integers — no RNG
draws, no scheduling, no messages, no wall clock — so a profiled run's
event schedule is byte-identical to an unprofiled one (the same
contract the protocol sanitizers honor, pinned by an integration test).

Off by default: ``Simulator.profiler`` is ``None`` and the kernel's
dispatch step takes a single-``is``-check fast path.  Enable per
cluster with ``MalacologyCluster.build(profile=True)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class SimProfiler:
    """Kernel-plane counters on the simulated clock.

    Attached at ``sim.profiler``; the kernel's dispatch step calls
    :meth:`on_event` per dispatched event and :meth:`on_cancelled` per
    cancelled one.
    """

    #: Record a (time, queue depth) sample every this many events; the
    #: tape feeds the Perfetto counter track and stays small even for
    #: multi-million-event runs.
    SAMPLE_EVERY = 256

    def __init__(self, sim: Any):
        self.sim = sim
        self.events_dispatched = 0
        self.events_cancelled = 0
        self.queue_hwm = 0
        self.ready_hwm = 0            # longest same-timestamp dispatch run
        self._ready_run = 0
        self._last_when: Optional[float] = None
        #: (sim time, queue depth) tape, sampled every SAMPLE_EVERY
        #: events — deterministic because event counts are.
        self.queue_samples: List[Tuple[float, int]] = []

    # ------------------------------------------------------------------
    # Kernel hooks (hot path: keep these tiny)
    # ------------------------------------------------------------------
    def on_event(self, when: float, depth: int) -> None:
        self.events_dispatched += 1
        if depth > self.queue_hwm:
            self.queue_hwm = depth
        if when == self._last_when:
            self._ready_run += 1
            if self._ready_run > self.ready_hwm:
                self.ready_hwm = self._ready_run
        else:
            self._last_when = when
            self._ready_run = 1
            if self.ready_hwm == 0:
                self.ready_hwm = 1
        if self.events_dispatched % self.SAMPLE_EVERY == 0:
            self.queue_samples.append((when, depth))

    def on_cancelled(self) -> None:
        self.events_cancelled += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def event_rate_sim(self) -> float:
        """Events dispatched per simulated second (0 before time moves)."""
        now = self.sim.now
        return self.events_dispatched / now if now > 0 else 0.0

    def status(self) -> Dict[str, Any]:
        """One-screen kernel-plane summary (``profile.status``)."""
        return {
            "time": self.sim.now,
            "events_dispatched": self.events_dispatched,
            "events_cancelled": self.events_cancelled,
            "event_rate_sim": self.event_rate_sim(),
            "queue_depth": self.sim.pending(),
            "queue_hwm": self.queue_hwm,
            "ready_hwm": self.ready_hwm,
        }

    def reset(self) -> None:
        self.events_dispatched = 0
        self.events_cancelled = 0
        self.queue_hwm = 0
        self.ready_hwm = 0
        self._ready_run = 0
        self._last_when = None
        self.queue_samples = []
