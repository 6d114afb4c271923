"""Micro rows (group (a)): public calls timed directly, per layer.

Each row is the median of five batches, reported per call.  They are
independent of any workload: a layer's row moves when that layer's
code gets faster, whichever workload happens to exercise it.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.core import MalacologyCluster, SharedResourceInterface
from repro.mantle import MantlePolicy, builtin
from repro.monitor.maps import OSDMap
from repro.msg import Daemon
from repro.objclass import ClassRegistry, compile_class_source
from repro.objclass.bundled import register_all
from repro.rados.erasure import ErasureCodec
from repro.rados.objects import StoredObject
from repro.rados.ops import apply_ops
from repro.rados.placement import locate
from repro.sim import FixedLatency, Network, Simulator
from repro.sim.event import Future
from repro.store import make_store
from repro.telemetry import PerfCounters
from repro.testing import (ScriptClient, build_monitor_quorum, run_script,
                           settle_quorum)
from repro.zlog import StripeLayout, ZLog

from bench.harness import build_cluster, metric
from bench.workloads import MapGossip, scaled

BATCHES = 5
BLOB = bytes(range(256)) * 16  # 4 KiB
NO_PLANES: frozenset = frozenset()

#: A batch body runs ``n`` calls and returns the host seconds they took.
Body = Callable[[int], float]


def per_call(body: Body, n: int) -> float:
    """Median host seconds per call over BATCHES batches of ``n``."""
    return statistics.median(body(n) for _ in range(BATCHES)) / n


def _bare(sim: Simulator) -> Simulator:
    # Whatever MALACOLOGY_SANITIZE / _PROFILE say: rows are bare.
    sim.sanitizers = sim.profiler = sim.wall_profiler = None
    return sim


def _sim() -> Simulator:
    return _bare(Simulator(seed=1))


def _timed_run(sim: Simulator, start: Callable[[], Any]) -> float:
    t0 = perf_counter()
    start()
    sim.run()
    return perf_counter() - t0


def _loop(call: Callable[[], Any]) -> Body:
    def body(n: int) -> float:
        t0 = perf_counter()
        for _ in range(n):
            call()
        return perf_counter() - t0
    return body


def _registry() -> ClassRegistry:
    registry = ClassRegistry()
    register_all(registry)
    return registry


def _zlog_write(pos: int) -> Dict[str, Any]:
    return {"op": "exec", "cls": "zlog", "method": "write",
            "args": {"epoch": 1, "pos": pos, "data": BLOB[:64]}}


def _log_object(entries: int) -> StoredObject:
    """A zlog stripe object holding ``entries`` written positions."""
    _, obj, _ = apply_ops(
        None, "stripe", [_zlog_write(pos) for pos in range(entries)],
        _registry())
    return obj


#: An osd_op-shaped request carrying one 4 KiB write.
OSD_OP_4K = {"pool": "rep", "oid": "o000", "epoch": None,
             "ops": [{"op": "write_full", "data": BLOB}]}


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def schedule_dispatch(n: int) -> float:
    """``Simulator.schedule`` plus its dispatch, at random delays."""
    sim = _sim()
    rng = random.Random(1)
    delays = [rng.random() for _ in range(n)]

    def noop() -> None:
        pass

    def start() -> None:
        for delay in delays:
            sim.schedule(delay, noop)

    return _timed_run(sim, start)


def process_yield(n: int) -> float:
    """One ``yield None`` of a process: step, re-queue, resume."""
    sim = _sim()

    def body() -> Generator:
        for _ in range(n):
            yield None

    return _timed_run(sim, lambda: sim.spawn(body()))


def future_wake(n: int) -> float:
    """A process waiting on a future that a scheduled call resolves."""
    sim = _sim()

    def body() -> Generator:
        for _ in range(n):
            fut = Future()
            sim.schedule(0.0, fut.resolve, None)
            yield fut

    return _timed_run(sim, lambda: sim.spawn(body()))


class _Sink:
    name = "sink"

    def deliver(self, envelope: Any) -> None:
        pass


def net_send_deliver(n: int) -> float:
    """``Network.send`` to a registered endpoint, through delivery."""
    sim = _sim()
    net = Network(sim, latency=FixedLatency(1e-4))
    net.register(_Sink())

    def start() -> None:
        for _ in range(n):
            net.send("src", "sink", None)

    return _timed_run(sim, start)


# ----------------------------------------------------------------------
# msg
# ----------------------------------------------------------------------
def _pair() -> Tuple[Simulator, Daemon, Daemon]:
    sim = _sim()
    net = Network(sim, latency=FixedLatency(1e-4))
    a, b = Daemon(sim, net, "a"), Daemon(sim, net, "b")
    b.register_handler("echo", lambda src, payload: payload)
    return sim, a, b


def call_rtt(payload: Any) -> Body:
    """``Daemon.call`` to an echo handler and back."""
    def body(n: int) -> float:
        sim, a, _ = _pair()

        def caller() -> Generator:
            for _ in range(n):
                yield a.call("b", "echo", payload)

        return _timed_run(sim, lambda: a.spawn(caller()))
    return body


def cast(n: int) -> float:
    sim, a, _ = _pair()

    def start() -> None:
        for _ in range(n):
            a.cast("b", "echo", {"k": 1})

    return _timed_run(sim, start)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def perf_incr(n: int) -> float:
    perf = PerfCounters(owner="bench")
    t0 = perf_counter()
    for _ in range(n):
        perf.incr("rpc.tx")
    return perf_counter() - t0


def perf_time_retain(n: int) -> float:
    perf = PerfCounters(owner="bench")
    t0 = perf_counter()
    for _ in range(n):
        perf.time("seq.next", 5e-5, retain=True)
    return perf_counter() - t0


# ----------------------------------------------------------------------
# rados, objclass
# ----------------------------------------------------------------------
def rados_rows(scale: float, big: StoredObject) -> Dict[str, float]:
    osdmap = OSDMap(epoch=1, osds={f"osd{i}": "up" for i in range(6)},
                    pools={"rep": {"size": 2, "pg_num": 32}})
    registry = _registry()
    blob_obj = StoredObject("o000")
    blob_obj.write(0, BLOB)
    big_dict = big.to_dict()
    codec = ErasureCodec(2, 1)
    shards = dict(enumerate(codec.encode(BLOB)[:2]))  # the read path
    n = scaled(2000, scale)
    few = scaled(20, scale)
    return {
        "rados.locate_ns": per_call(_loop(
            lambda: locate(osdmap, "rep", "o000")), n),
        "rados.apply_write_full_4k_ns": per_call(_loop(
            lambda: apply_ops(blob_obj, "o000", OSD_OP_4K["ops"],
                              registry)), n),
        "rados.apply_read_4k_ns": per_call(_loop(
            lambda: apply_ops(blob_obj, "o000", [{"op": "read"}],
                              registry)), n),
        "rados.obj_clone_1k_ns": per_call(_loop(big.clone), few),
        "rados.obj_to_dict_1k_ns": per_call(_loop(big.to_dict), few),
        "rados.obj_from_dict_1k_ns": per_call(_loop(
            lambda: StoredObject.from_dict(big_dict)), few),
        "rados.ec_encode_4k_ns": per_call(_loop(
            lambda: codec.encode(BLOB)), scaled(200, scale)),
        "rados.ec_decode_4k_ns": per_call(_loop(
            lambda: codec.decode(shards, len(BLOB))), n),
        # apply_ops never mutates its input, so every call appends to
        # the same 0- or 1,000-entry object: the ratio is the growth
        # factor of the append path.
        "objclass.zlog_write_n0_ns": per_call(_loop(
            lambda: apply_ops(None, "stripe", [_zlog_write(0)],
                              registry)), n),
        "objclass.zlog_write_n1000_ns": per_call(_loop(
            lambda: apply_ops(big, "stripe", [_zlog_write(1000)],
                              registry)), few),
        "objclass.compile_ns": per_call(_loop(
            lambda: compile_class_source("bench_iface",
                                         MapGossip.SOURCE)),
            scaled(500, scale)),
    }


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
STORES = {
    "memstore": {},
    "logstructured": {"backend": "logstructured"},
    "coldstore": {"backend": {"profile": "coldstore", "k": 2, "m": 1}},
    "cachetier": {"cache": {"capacity": 64, "promote_reads": 2}},
}


def store_rows(scale: float) -> Dict[str, float]:
    """Commit then fetch 4 KiB objects over 128 oids, per backend.

    Background work (compaction, flush to the cold set, write-back) is
    forced between the two phases, so fetches see the settled store.
    """
    n = scaled(1000, scale)
    oids = [f"o{i:03d}" for i in range(128)]
    rows = {}
    for name, config in STORES.items():
        commit_s: List[float] = []
        fetch_s: List[float] = []
        for _ in range(BATCHES):
            store = make_store(**config)
            objs = []
            for i in range(n):
                obj = StoredObject(oids[i % len(oids)])
                obj.write(0, BLOB)
                objs.append(obj)
            t0 = perf_counter()
            for obj in objs:
                store.commit(obj)
            commit_s.append(perf_counter() - t0)
            store.flush(1.0)
            t0 = perf_counter()
            for i in range(n):
                store.fetch(oids[i % len(oids)])
            fetch_s.append(perf_counter() - t0)
        rows[f"store.{name}.commit_ns"] = statistics.median(commit_s) / n
        rows[f"store.{name}.fetch_ns"] = statistics.median(fetch_s) / n
    return rows


# ----------------------------------------------------------------------
# monitor, mds, mantle, zlog: one small cluster each
# ----------------------------------------------------------------------
def paxos_rows(scale: float) -> Dict[str, Dict[str, Any]]:
    """One ``mon_kv_put`` through a three-monitor quorum."""
    sim, net, mons = build_monitor_quorum(count=3, seed=1,
                                          proposal_interval=0.05)
    settle_quorum(_bare(sim), mons)
    client = ScriptClient(sim, net, "client", [m.name for m in mons])
    n = scaled(40, scale)
    run_script(sim, client, client.mon_kv_put("warm", 0))
    host, sim_s, msgs = [], [], []
    for i in range(n):
        sent, started = net.messages_sent, sim.now
        t0 = perf_counter()
        run_script(sim, client, client.mon_kv_put(f"k{i}", i))
        host.append(perf_counter() - t0)
        sim_s.append(sim.now - started)
        msgs.append(net.messages_sent - sent)
    return {
        "monitor.paxos_commit_host_us": metric(
            statistics.median(host) * 1e6, "us"),
        "monitor.paxos_commit_msgs": metric(
            statistics.median(msgs), "count"),
        "monitor.paxos_commit_sim_ms": metric(
            statistics.median(sim_s) * 1e3, "ms"),
    }


def _host_us(cluster: MalacologyCluster, ops: List[Generator]) -> float:
    """Median host microseconds to run each client op to completion."""
    times = []
    for op in ops:
        t0 = perf_counter()
        cluster.do(op)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def mds_rows(scale: float) -> Dict[str, float]:
    cluster = build_cluster(NO_PLANES, osds=3, mdss=1, seed=1)
    admin = cluster.admin
    cluster.do(SharedResourceInterface(admin).set_lease_policy(
        "round-trip"))
    cluster.do(admin.fs_mkdir("/m"))
    cluster.do(admin.fs_create("/m/seq", file_type="sequencer"))
    cluster.do(admin.seq_next("/m/seq"))
    n = scaled(200, scale)
    rows = {"mds.seq_next_rtt_host_us": _host_us(
        cluster, [admin.seq_next("/m/seq") for _ in range(n)])}
    # fs_create into a directory holding 0, then 200, entries.
    few = scaled(20, scale)
    for label, held in (("n0", 0), ("n200", scaled(200, scale))):
        cluster.do(admin.fs_mkdir(f"/{label}"))
        for i in range(held):
            cluster.do(admin.fs_create(f"/{label}/held{i}"))
        rows[f"mds.create_{label}_host_us"] = _host_us(
            cluster, [admin.fs_create(f"/{label}/new{i}")
                      for i in range(few)])
    return rows


def mantle_decide(n: int) -> float:
    policy = MantlePolicy("bench", builtin.MANTLE_SEQUENCER)
    table = [{"load": 90.0, "cpu": 0.9, "req_rate": 900.0, "inodes": 30},
             {"load": 5.0, "cpu": 0.1, "req_rate": 50.0, "inodes": 3},
             {"load": 1.0, "cpu": 0.0, "req_rate": 10.0, "inodes": 1}]
    state: Dict[str, Any] = {"cooldown": 0}
    return _loop(lambda: policy.decide(table, 0, state))(n)


def zlog_readback(scale: float) -> float:
    """Entries per host second reading back a 4-wide striped log."""
    cluster = build_cluster(NO_PLANES, osds=4, mdss=1, seed=1)
    log = ZLog(cluster.admin, "micro", StripeLayout("micro", width=4))
    cluster.do(log.create())
    n = scaled(256, scale)

    def fill() -> Generator:
        for _ in range(n):
            yield from log.append(BLOB[:64])

    cluster.do(fill())
    rates = []
    for _ in range(3):
        t0 = perf_counter()
        cluster.do(log.read_range(0, n, skip_holes=False))
        rates.append(n / (perf_counter() - t0))
    return statistics.median(rates)


def micro(scale: float = 1.0) -> Dict[str, Dict[str, Any]]:
    """Every micro row, by metric name.  ``scale`` shrinks the batches."""
    n = scaled(20000, scale)
    rpc = scaled(2000, scale)
    big = _log_object(1000)  # a stripe object holding 1,000 entries
    ns = {
        "sim.schedule_dispatch_ns": per_call(schedule_dispatch, n),
        "sim.process_yield_ns": per_call(process_yield, n),
        "sim.future_wake_ns": per_call(future_wake, n),
        "sim.net_send_deliver_ns": per_call(net_send_deliver, n),
        "msg.call_rtt_small_ns": per_call(call_rtt({"k": 1}), rpc),
        "msg.call_rtt_4k_ns": per_call(call_rtt(OSD_OP_4K), rpc),
        "msg.call_rtt_state_ns": per_call(
            call_rtt(big.to_dict()), scaled(20, scale)),
        "msg.cast_ns": per_call(cast, rpc),
        "telemetry.incr_ns": per_call(perf_incr, n),
        "telemetry.time_retain_ns": per_call(perf_time_retain, n),
        **rados_rows(scale, big),
        **store_rows(scale),
    }
    rows = {name: metric(seconds * 1e9, "ns")
            for name, seconds in ns.items()}
    rows.update(paxos_rows(scale))
    rows.update({name: metric(us, "us")
                 for name, us in mds_rows(scale).items()})
    rows["mantle.decide_us"] = metric(
        per_call(mantle_decide, scaled(200, scale)) * 1e6, "us")
    rows["zlog.readback_ops_per_s"] = metric(zlog_readback(scale), "ops/s")
    return rows
