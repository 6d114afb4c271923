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
from repro.rados.objects import StoredObject
from repro.sim import Network, Simulator
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
    ``clone`` share values, not copy them, and lets OSDs hand a committed
    object to replicas and recovery targets by reference.
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
