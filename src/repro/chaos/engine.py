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

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.ops import NemesisOp, NemesisSchedule
from repro.rados.placement import acting_set
from repro.sim.failure import FailureInjector
from repro.store import StoreFaultPlane


#: Log kinds the engine writes to mark its own lifecycle; every other
#: log entry is a fault.
MARKERS = ("on", "off", "finalize")

#: One timed call: ``(time, fn, args)``.
Call = Tuple[float, Callable[..., None], Tuple[Any, ...]]


class NemesisEngine:
    """Applies one :class:`NemesisSchedule` to one cluster."""

    def __init__(self, cluster: Any):
        self.cluster = cluster
        self.sim = cluster.sim
        self.injector = FailureInjector(self.sim, cluster.net)
        self.store_plane = StoreFaultPlane(
            self.sim.rng("chaos:store"), self.injector.record)
        self._rng = self.sim.rng("chaos:engine")
        self.schedule: Optional[NemesisSchedule] = None
        self.armed = False
        self._base = 0.0
        self._daemons: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self, schedule: NemesisSchedule) -> None:
        """Install the schedule; faults fire as the sim runs.

        Every op is resolved before any is scheduled, so a schedule
        that names an unknown daemon or a bad parameter raises and
        leaves the cluster (and the engine) untouched.
        """
        if self.armed:
            raise RuntimeError("engine already armed")
        self._base = self.sim.now
        self._daemons = {d.name: d for d in self.cluster.daemons()}
        calls = [call for op in schedule.ops for call in self._apply(op)]
        self.schedule = schedule
        self.armed = True
        self.sim.chaos = self
        for osd in self.cluster.osds:
            osd.store_faults = self.store_plane
        for t, fn, args in calls:
            self.sim.schedule(max(0.0, t - self.sim.now), fn, *args)

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
        self.injector.record("finalize", "all faults lifted")

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
            "schedule": None if self.schedule is None else self.schedule.name,
            "ops": 0 if self.schedule is None else len(self.schedule),
            "faults": sum(1 for _t, kind, _d in self.injector.log
                          if kind not in MARKERS),
        }

    # ------------------------------------------------------------------
    # Op interpretation
    # ------------------------------------------------------------------
    def _daemon(self, name: str) -> Any:
        daemon = self._daemons.get(name)
        if daemon is None:
            raise ValueError(f"nemesis op targets unknown daemon {name!r}")
        return daemon

    def _apply(self, op: NemesisOp) -> List[Call]:
        """The timed calls that carry out ``op``; raises on a bad op."""
        t = self._base + op.at
        p = op.params
        inj = self.injector
        if op.kind in ("flap", "rolling_flap"):
            if p["down_for"] <= 0:
                raise ValueError("restart must come after crash")
            names = p["targets"] if op.kind == "rolling_flap" \
                else [p["target"]]
            stagger = p.get("stagger", 1.0)
            calls: List[Call] = []
            for i, name in enumerate(names):
                start = t + i * stagger
                daemon = self._daemon(name)
                calls += [(start, inj.crash, (daemon,)),
                          (start + p["down_for"], inj.restart, (daemon,))]
            return calls
        if op.kind == "crash":
            return [(t, inj.crash, (self._daemon(p["target"]),))]
        if op.kind in ("partition", "partition_oneway", "partition_group"):
            cut, heal = inj.partition, inj.heal
            if op.kind == "partition":
                links = [(p["a"], p["b"])]
            elif op.kind == "partition_oneway":
                links = [(p["src"], p["dst"])]
                cut, heal = inj.partition_oneway, inj.heal_oneway
            else:
                links = [(a, b) for a in p["group_a"] for b in p["group_b"]]
            calls = []
            for link in links:
                calls += [(t, cut, link), (t + p["heal_for"], heal, link)]
            return calls
        lasts = p.get("lasts", 5.0)
        if op.kind == "slow":
            if p["factor"] <= 0:
                raise ValueError("slowdown factor must be positive")
            return [(t, inj.slow, (p["target"], p["factor"])),
                    (t + lasts, inj.unslow, (p["target"],))]
        if op.kind == "pause":
            daemon = self._daemon(p["target"])
            return [(t, inj.pause, (daemon,)),
                    (t + lasts, inj.resume, (daemon,))]
        if op.kind == "bitrot":
            return [(t, self._bitrot, (p["pool"], p.get("count", 1)))]
        if op.kind == "loss":
            return self._window(
                t, lasts, lambda: inj.set_loss(p["src"], p["dst"], p["rate"]),
                lambda: inj.set_loss(p["src"], p["dst"], 0.0),
                f"loss {p['src']}->{p['dst']}@{p['rate']:g}")
        if op.kind == "duplicate":
            return self._window(
                t, lasts, lambda: inj.set_duplication(p["rate"]),
                lambda: inj.set_duplication(0.0), f"duplicate@{p['rate']:g}")
        if op.kind == "reorder":
            return self._window(
                t, lasts,
                lambda: inj.set_reorder(p["rate"], p.get("spread", 4.0)),
                lambda: inj.set_reorder(0.0), f"reorder@{p['rate']:g}")
        if op.kind == "corrupt":
            detected = p.get("detected", True)
            return self._window(
                t, lasts, lambda: inj.set_corruption(p["rate"], detected),
                lambda: inj.set_corruption(0.0), f"corrupt@{p['rate']:g}")
        if op.kind in ("store_eio", "store_torn"):
            targets = set(p["targets"]) if "targets" in p else None
            plane = self.store_plane
            setter = (plane.set_eio if op.kind == "store_eio"
                      else plane.set_torn)
            return self._window(
                t, lasts, lambda: setter(p["rate"], targets),
                lambda: setter(0.0), f"{op.kind}@{p['rate']:g}")
        raise ValueError(f"unhandled op kind {op.kind!r}")  # unreachable

    def _window(self, t: float, lasts: float, on: Callable[[], None],
                off: Callable[[], None], label: str) -> List[Call]:
        """Open a fault window at ``t`` and close it at ``t+lasts``."""
        def _on() -> None:
            self.injector.record("on", label)
            on()

        def _off() -> None:
            self.injector.record("off", label)
            off()

        return [(t, _on, ()), (t + lasts, _off, ())]

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
