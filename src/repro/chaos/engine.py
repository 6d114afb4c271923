"""The nemesis engine: interprets a schedule against a live cluster.

One engine drives one run.  ``arm`` translates every
:class:`~repro.chaos.ops.NemesisOp` into injector/fault-plane calls
scheduled on the simulator; ``finalize`` restores the cluster to a
fault-free state so the oracles judge *recovery*, not an ongoing
outage.  Finalize-restores-everything is also what keeps schedules
minimizable: any op can be dropped without stranding the cluster,
because nothing an op breaks stays broken past the horizon.

All randomness (bit-rot targeting, store fault draws) comes from
dedicated ``chaos:*`` RNG streams; the message-chaos knobs draw from
the injector's own ``failures:*`` streams.  An armed engine whose
schedule is empty leaves the event schedule byte-identical to an
unarmed run (pinned by a tape test).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.ops import NemesisOp, NemesisSchedule
from repro.rados.placement import acting_set
from repro.sim.failure import FailureInjector
from repro.store import StoreFaultPlane


class NemesisEngine:
    """Applies one :class:`NemesisSchedule` to one cluster."""

    def __init__(self, cluster: Any):
        self.cluster = cluster
        self.sim = cluster.sim
        self.injector = FailureInjector(self.sim, cluster.net)
        self.store_plane = StoreFaultPlane(
            self.sim.rng("chaos:store"), clock=lambda: self.sim.now)
        self._rng = self.sim.rng("chaos:engine")
        self.schedule: Optional[NemesisSchedule] = None
        self.armed = False
        self._base = 0.0
        self._daemons: Dict[str, Any] = {}
        #: Engine-level event log ``(time, kind, detail)`` — op
        #: application and bit-rot hits; the injector and store plane
        #: keep their own fault logs.
        self.log: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self, schedule: NemesisSchedule) -> None:
        """Install the schedule; faults fire as the sim runs."""
        if self.armed:
            raise RuntimeError("engine already armed")
        self.schedule = schedule
        self.armed = True
        self._base = self.sim.now
        self.sim.chaos = self
        self._daemons = {d.name: d for d in self.cluster.daemons()}
        for osd in self.cluster.osds:
            osd.store_faults = self.store_plane
        for op in schedule.ops:
            self._apply(op)

    def finalize(self) -> None:
        """Lift every fault so recovery can complete.

        Leaves the cluster healing: callers should run the sim for a
        settle period (and trigger scrubs) before consulting oracles.
        """
        self.armed = False
        self.injector.clear_loss()
        self.injector.clear_chaos()
        self.injector.clear_slowdowns()
        self.store_plane.clear()
        self.cluster.net.heal_all()
        for name in sorted(self._daemons):
            daemon = self._daemons[name]
            daemon.resume_tickers()
            if not daemon.alive:
                daemon.restart()
        self.log.append((self.sim.now, "finalize", "all faults lifted"))

    def trigger_scrubs(self) -> int:
        """Ask every OSD to scrub all PGs it leads; returns the count."""
        started = 0
        for osd in self.cluster.osds:
            if osd.alive:
                out = osd.admin_command("scrub.trigger")
                started += out.get("scrubs_started", 0)
        return started

    def status(self) -> Dict[str, Any]:
        """JSON-safe snapshot for the mgr's chaos health check."""
        return {
            "armed": self.armed,
            "schedule": self.schedule.name if self.schedule else None,
            "ops": len(self.schedule) if self.schedule else 0,
            "injector_faults": len(self.injector.log),
            "store_faults": self.store_plane.faults_injected,
            "engine_events": len(self.log),
        }

    # ------------------------------------------------------------------
    # Op interpretation
    # ------------------------------------------------------------------
    def _daemon(self, name: str) -> Any:
        daemon = self._daemons.get(name)
        if daemon is None:
            raise ValueError(f"nemesis op targets unknown daemon {name!r}")
        return daemon

    def _at(self, t: float, fn: Any, *args: Any) -> None:
        self.sim.schedule(max(0.0, t - self.sim.now), fn, *args)

    def _apply(self, op: NemesisOp) -> None:
        t = self._base + op.at
        p = op.params
        inj = self.injector
        if op.kind == "flap":
            inj.flap(self._daemon(p["target"]), t, t + p["down_for"])
        elif op.kind == "crash":
            inj.crash_at(t, self._daemon(p["target"]))
        elif op.kind == "rolling_flap":
            stagger = p.get("stagger", 1.0)
            for i, name in enumerate(p["targets"]):
                start = t + i * stagger
                inj.flap(self._daemon(name), start,
                         start + p["down_for"])
        elif op.kind == "partition":
            inj.partition_at(t, p["a"], p["b"])
            inj.heal_at(t + p["heal_for"], p["a"], p["b"])
        elif op.kind == "partition_oneway":
            inj.partition_oneway_at(t, p["src"], p["dst"])
            inj.heal_oneway_at(t + p["heal_for"], p["src"], p["dst"])
        elif op.kind == "partition_group":
            for a in p["group_a"]:
                for b in p["group_b"]:
                    inj.partition_at(t, a, b)
                    inj.heal_at(t + p["heal_for"], a, b)
        elif op.kind == "loss":
            self._window(t, p.get("lasts", 5.0),
                         lambda: inj.set_loss(p["src"], p["dst"],
                                              p["rate"]),
                         lambda: inj.set_loss(p["src"], p["dst"], 0.0),
                         f"loss {p['src']}->{p['dst']}@{p['rate']:g}")
        elif op.kind == "slow":
            inj.slow_at(t, p["target"], p["factor"])
            inj.unslow_at(t + p.get("lasts", 5.0), p["target"])
        elif op.kind == "pause":
            inj.pause_at(t, self._daemon(p["target"]))
            inj.resume_at(t + p.get("lasts", 5.0),
                          self._daemon(p["target"]))
        elif op.kind == "duplicate":
            self._window(t, p.get("lasts", 5.0),
                         lambda: inj.set_duplication(p["rate"]),
                         lambda: inj.set_duplication(0.0),
                         f"duplicate@{p['rate']:g}")
        elif op.kind == "reorder":
            self._window(t, p.get("lasts", 5.0),
                         lambda: inj.set_reorder(p["rate"],
                                                 p.get("spread", 4.0)),
                         lambda: inj.set_reorder(0.0),
                         f"reorder@{p['rate']:g}")
        elif op.kind == "corrupt":
            detected = p.get("detected", True)
            self._window(t, p.get("lasts", 5.0),
                         lambda: inj.set_corruption(p["rate"], detected),
                         lambda: inj.set_corruption(0.0),
                         f"corrupt@{p['rate']:g}")
        elif op.kind == "store_eio":
            targets = set(p["targets"]) if "targets" in p else None
            self._window(t, p.get("lasts", 5.0),
                         lambda: self.store_plane.set_eio(p["rate"],
                                                          targets),
                         lambda: self.store_plane.set_eio(0.0),
                         f"store_eio@{p['rate']:g}")
        elif op.kind == "store_torn":
            targets = set(p["targets"]) if "targets" in p else None
            self._window(t, p.get("lasts", 5.0),
                         lambda: self.store_plane.set_torn(p["rate"],
                                                           targets),
                         lambda: self.store_plane.set_torn(0.0),
                         f"store_torn@{p['rate']:g}")
        elif op.kind == "bitrot":
            self._at(t, self._bitrot, p["pool"], p.get("count", 1))
        else:  # unreachable: NemesisOp validates kinds
            raise ValueError(f"unhandled op kind {op.kind!r}")

    def _window(self, t: float, lasts: float, on: Any, off: Any,
                label: str) -> None:
        """Open a fault window at ``t`` and close it at ``t+lasts``."""
        def _on() -> None:
            self.log.append((self.sim.now, "on", label))
            on()

        def _off() -> None:
            self.log.append((self.sim.now, "off", label))
            off()

        self._at(t, _on)
        self._at(t + lasts, _off)

    def _bitrot(self, pool: str, count: int) -> None:
        """Rot up to ``count`` objects on non-primary replicas.

        Primaries are exempt on purpose: scrub repairs by force-pushing
        primary state, so rotting a primary would *propagate* the
        damage instead of exposing it for repair.  Size-1 pools have no
        non-primary replicas and rot nothing.
        """
        candidates = []
        for osd in self.cluster.osds:
            m = osd.osdmap
            if m is None:
                continue
            for key in sorted(osd.pgs):
                pg_pool, pgid = key
                if pg_pool != pool:
                    continue
                acting = acting_set(m, pg_pool, pgid)
                if (not acting or acting[0] == osd.name
                        or osd.name not in acting):
                    continue
                store = osd.pgs[key]
                for oid in sorted(store):
                    if store[oid].data:
                        candidates.append((osd.name, key, oid))
        candidates.sort()
        hit = 0
        while candidates and hit < count:
            name, key, oid = candidates.pop(
                self._rng.randrange(len(candidates)))
            store = self._daemons[name].pgs[key]
            if self.store_plane.flip_bit(store, oid, owner=name):
                hit += 1
        self.log.append(
            (self.sim.now, "bitrot", f"{pool}: {hit}/{count} objects"))
