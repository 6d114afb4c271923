"""Builders and helpers shared by tests, benchmarks, and examples.

These are *public*: downstream users writing their own experiments get
the same convenience the in-tree benchmarks use.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Any, Callable, Dict, Generator, Iterator, List, Optional,
                    Tuple)

from repro.monitor.monitor import Monitor, MonitorClient
from repro.msg import Daemon
from repro.rados.client import RadosClient
from repro.rados.objects import StoredObject
from repro.sim import FixedLatency, Network, Simulator
from repro.sim.network import LatencyModel, lan_latency
from repro.store import ObjectStore


def build_monitor_quorum(
    count: int = 3,
    seed: int = 0,
    proposal_interval: float = 0.1,
    backing: str = "ram",
    latency: Optional[LatencyModel] = None,
) -> Tuple[Simulator, Network, List[Monitor]]:
    """Boot a monitor quorum on a fresh simulator.

    Returns before any election has happened; run the simulator for a
    couple of simulated seconds (or use :func:`settle_quorum`) to let a
    leader emerge.
    """
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or lan_latency())
    names = [f"mon{i}" for i in range(count)]
    mons = [Monitor(sim, net, name, names,
                    proposal_interval=proposal_interval, backing=backing)
            for name in names]
    return sim, net, mons


def settle_quorum(sim: Simulator, mons: List[Monitor],
                  deadline: float = 30.0) -> Monitor:
    """Run until a leader exists; returns the leader monitor."""
    step = 0.5
    t = sim.now
    while t < deadline:
        t = sim.run(until=t + step)
        leaders = [m for m in mons if m.alive and m.is_leader]
        if len(leaders) == 1:
            return leaders[0]
    raise AssertionError("no leader emerged before the deadline")


def build_rados_cluster(
    osd_count: int = 4,
    mon_count: int = 3,
    seed: int = 0,
    proposal_interval: float = 0.1,
    pools: Optional[dict] = None,
    latency: Optional[LatencyModel] = None,
) -> "RadosCluster":
    """Boot monitors + OSDs and create pools; settle until serviceable.

    ``pools`` maps pool name -> {"size": r, "pg_num": n}; defaults to
    one pool ``"data"`` with 2x replication and 32 PGs.
    """
    from repro.rados.osd import OSD

    sim, net, mons = build_monitor_quorum(
        count=mon_count, seed=seed, proposal_interval=proposal_interval,
        latency=latency)
    settle_quorum(sim, mons)
    mon_names = [m.name for m in mons]
    osds = [OSD(sim, net, f"osd{i}", mon_names) for i in range(osd_count)]
    # Let OSDs boot and learn the map.
    deadline = sim.now + 60.0
    while sim.now < deadline and not all(o.booted for o in osds):
        sim.run(until=sim.now + 0.5)
    if not all(o.booted for o in osds):
        raise AssertionError("OSDs failed to boot")
    client = RadosScriptClient(sim, net, "admin", mon_names)
    for name, cfg in (pools or {"data": {"size": 2, "pg_num": 32}}).items():
        run_script(sim, client, client.rados_create_pool(
            name, size=cfg.get("size", 2), pg_num=cfg.get("pg_num", 32),
            ec=cfg.get("ec"), backend=cfg.get("backend"),
            cache=cfg.get("cache")))
    sim.run(until=sim.now + 2.0)  # let the pool map gossip out
    return RadosCluster(sim=sim, net=net, mons=mons, osds=osds,
                        admin=client)


class RadosCluster:
    """Handle bundling a booted simulation cluster for tests/benches."""

    def __init__(self, sim: Simulator, net: Network, mons: List[Monitor],
                 osds: list, admin: "RadosScriptClient"):
        self.sim = sim
        self.net = net
        self.mons = mons
        self.osds = osds
        self.admin = admin

    @property
    def mon_names(self) -> List[str]:
        return [m.name for m in self.mons]

    def new_client(self, name: str) -> "RadosScriptClient":
        return RadosScriptClient(self.sim, self.net, name, self.mon_names)

    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def do(self, gen: Generator, limit: float = 1e9) -> Any:
        """Run a client script (generator) to completion on the admin."""
        return run_script(self.sim, self.admin, gen, limit=limit)


class ScriptClient(Daemon, MonitorClient):
    """A generic client daemon for driving scripted operations.

    ``do(gen)`` spawns a generator (typically built from the
    MonitorClient / RadosClient / filesystem-client mixin methods) and
    returns its process; combine with ``sim.run_until_complete``.
    """

    def __init__(self, sim: Simulator, network: Network, name: str,
                 mon_names: List[str]):
        super().__init__(sim, network, name)
        self.init_mon_client(mon_names)

    def do(self, gen: Generator, name: str = "script"):
        return self.spawn(gen, name=f"{self.name}:{name}")


class RadosScriptClient(ScriptClient, RadosClient):
    """Script client with full object-store access."""


def run_script(sim: Simulator, client: ScriptClient,
               gen: Generator, limit: float = 1e9) -> Any:
    """Spawn ``gen`` on ``client`` and drive the sim to its completion."""
    proc = client.do(gen)
    return sim.run_until_complete(proc, limit=limit)


def record_sends(net: Network, ignore: Tuple[str, ...] = ()) -> List[tuple]:
    """Tape every ``net.send`` from now on; returns the live tape.

    Entries are ``(sim time, src, dst, method or kind)``: two runs of
    one seed followed the same schedule iff their tapes are equal,
    which is how observer planes are shown to be transparent.  Traffic
    to or from endpoints named with an ``ignore`` prefix (an observer's
    own daemons) stays off the tape.
    """
    tape: List[tuple] = []
    send = net.send

    def spy(src: str, dst: str, msg: Any) -> None:
        if not (src.startswith(ignore) or dst.startswith(ignore)):
            tape.append((net.sim.now, src, dst,
                         getattr(msg, "method", None)
                         or getattr(msg, "kind", None)))
        send(src, dst, msg)

    net.send = spy
    return tape


@contextmanager
def watch_committed_objects() -> Iterator[Callable[[], List[str]]]:
    """Aliasing oracle: an object handed to a store never changes again.

    Inside the block every object passed to any backend's ``commit`` or
    ``__setitem__`` is kept with its ``digest()``.  The yielded function
    re-digests them all, superseded versions included, and returns one
    line per object whose content moved.  That property is what lets
    ``clone`` / ``to_dict`` / ``from_dict`` share values, not copy them.
    """
    seen: Dict[int, Tuple[StoredObject, str]] = {}  # id -> (obj, digest)

    def watching(method: Callable) -> Callable:
        def wrapper(store, *args):  # commit(obj) / __setitem__(oid, obj)
            seen.setdefault(id(args[-1]), (args[-1], args[-1].digest()))
            return method(store, *args)
        return wrapper

    def changed() -> List[str]:
        assert seen, "no object reached a store inside the block"
        return [f"{obj!r}: {was[:12]} -> {obj.digest()[:12]}"
                for obj, was in seen.values() if obj.digest() != was]

    originals = [(cls, name, vars(cls)[name])
                 for cls in ObjectStore.__subclasses__()  # every backend
                 for name in ("commit", "__setitem__") if name in vars(cls)]
    for cls, name, method in originals:
        setattr(cls, name, watching(method))
    try:
        yield changed
    finally:
        for cls, name, method in originals:
            setattr(cls, name, method)
