"""The six workloads: set-up, timed phase, collection and output check.

Each workload drives simulated closed-loop clients from one host
thread.  ``setup`` builds a fresh cluster and primes it (untimed,
reported as ``setup_s``); ``run`` is the timed phase; ``collect`` reads
what the ops did; ``verify`` checks the program's outputs and raises
:class:`~bench.harness.CheckFailed` when they are wrong.

``--seed`` is the cluster seed and the root of every key stream;
``seed`` on the class is the one the committed baseline was taken at.
``scale`` multiplies the size (simulated seconds or ops per client).
"""

from __future__ import annotations

import random
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Dict, FrozenSet, List

from repro.changelog import CHANGELOG_POOL, ChangelogWriter
from repro.core import (LoadBalancingInterface, MalacologyCluster,
                        SharedResourceInterface)
from repro.errors import MalacologyError
from repro.mantle import attach_balancers, builtin
from repro.rados.osd import OSD
from repro.workloads import LeaseContentionWorkload, SequencerWorkload
from repro.zlog import StripeLayout, ZLog

from bench.harness import CheckFailed, Outcome, build_cluster, spanned

#: Replies older than this at cancellation have all arrived (ten times
#: the LAN model's 5 ms latency cap).
IN_FLIGHT_S = 0.05


def scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def check_positions(traces: List[List[Any]], stopped_at: float,
                    what: str, known_duplicates: int = 0) -> int:
    """Issued positions are unique and gap-free; returns the duplicates.

    ``stop()`` cancels clients mid-op, so a position whose reply was
    still on the wire is legitimately missing: gaps are only an error
    below the highest position seen before the in-flight window.
    ``known_duplicates`` is how many repeats the caller can explain.
    """
    seen = [pos for trace in traces for _, pos in trace]
    unique = set(seen)
    duplicates = len(seen) - len(unique)
    if duplicates > known_duplicates:
        raise CheckFailed(f"{what}: {duplicates} positions were issued "
                          f"twice ({known_duplicates} explained)")
    settled = max((pos for trace in traces for t, pos in trace
                   if t <= stopped_at - IN_FLIGHT_S), default=-1)
    missing = [p for p in range(settled + 1) if p not in unique]
    if missing:
        raise CheckFailed(f"{what}: positions {missing[:5]} (of "
                          f"{len(missing)}) were never issued")
    return duplicates


def span_seq_next(clients: List[Any], planes: FrozenSet[str]) -> None:
    """Spans plane for the ``repro.workloads`` loops, which call
    ``client.seq_next`` themselves: wrap it per client."""
    if "spans" not in planes:
        return
    for client in clients:
        client.seq_next = (
            lambda path, c=client, op=client.seq_next:
            c.traced(op(path), "seq.next"))


class _SequencerLoad(SequencerWorkload):
    @property
    def clients(self) -> List[Any]:
        return self._clients


class Workload:
    name = ""
    #: The seed the committed baseline was measured at.
    seed = 0
    #: Observer planes that are part of the workload itself.
    planes: FrozenSet[str] = frozenset()
    #: Size of the observer-overhead runs, as a share of the timed size.
    observe_scale = 0.1

    def sizes(self, scale: float) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, seed: int, scale: float,
              planes: FrozenSet[str]) -> Any:
        raise NotImplementedError

    def run(self, ctx: Any) -> None:
        raise NotImplementedError

    def collect(self, ctx: Any) -> Outcome:
        raise NotImplementedError

    def verify(self, ctx: Any, out: Outcome) -> None:
        raise NotImplementedError


class SeqCached(Workload):
    """Fig. 6 point: two clients share one sequencer under a quota lease.

    Nearly every op is served client-side from a cached capability, so
    the kernel and telemetry do the work and the wire and storage
    layers are bypassed: the control for any wire or storage change.
    """

    name = "seq_cached"
    seed = 62
    #: The wall-clock profiler costs 25-40x here.
    observe_scale = 0.03
    SIM_S = 60.0
    CLIENTS = 2
    QUOTA = 1000
    MAX_HOLD = 0.25

    def sizes(self, scale):
        return {"osds": 3, "mdss": 1, "clients": self.CLIENTS,
                "quota": self.QUOTA, "max_hold": self.MAX_HOLD,
                "sim_s": self.SIM_S * scale}

    def setup(self, seed, scale, planes):
        cluster = build_cluster(planes, osds=3, mdss=1, seed=seed)
        load = LeaseContentionWorkload(cluster, clients=self.CLIENTS)
        load.setup("quota", quota=self.QUOTA, max_hold=self.MAX_HOLD)
        return SimpleNamespace(cluster=cluster, load=load, planes=planes,
                               sim_s=self.SIM_S * scale)

    def run(self, ctx):
        ctx.load.start()
        span_seq_next(ctx.load.clients, ctx.planes)
        ctx.cluster.run(ctx.sim_s)
        ctx.stopped_at = ctx.cluster.sim.now
        ctx.load.stop()

    def collect(self, ctx):
        lat = ctx.load.all_latencies()
        return Outcome(attempted=len(lat), failed=0, latencies=lat,
                       sim_s=ctx.sim_s)

    def verify(self, ctx, out):
        check_positions(ctx.load.traces(), ctx.stopped_at, self.name)


class SeqRoundtrip(Workload):
    """Fig. 9 Mantle configuration: every op is one RPC to an MDS.

    Envelope, payload copy, handler dispatch, network and the MDS
    server do the work; RADOS is idle.  ``sim_ops_per_s`` is the
    paper's Fig. 9 number and moves only with protocol or balancer
    changes.
    """

    name = "seq_roundtrip"
    seed = 91
    SIM_S = 40.0
    SEQUENCERS = 3
    CLIENTS_PER_SEQ = 4

    def sizes(self, scale):
        return {"osds": 10, "mdss": 3, "sequencers": self.SEQUENCERS,
                "clients_per_seq": self.CLIENTS_PER_SEQ,
                "policy": "MANTLE_SEQUENCER", "sim_s": self.SIM_S * scale}

    def setup(self, seed, scale, planes):
        cluster = build_cluster(planes, osds=10, mdss=3, seed=seed)
        attach_balancers(cluster)
        cluster.do(LoadBalancingInterface(cluster.admin).publish_policy(
            "mantle", builtin.MANTLE_SEQUENCER))
        load = _SequencerLoad(cluster, num_sequencers=self.SEQUENCERS,
                              clients_per_seq=self.CLIENTS_PER_SEQ)
        load.setup(lease_mode="round-trip")
        return SimpleNamespace(cluster=cluster, load=load, planes=planes,
                               sim_s=self.SIM_S * scale)

    run = SeqCached.run

    def collect(self, ctx):
        lat = ctx.load.latencies
        return Outcome(attempted=len(lat), failed=0, latencies=lat,
                       sim_s=ctx.sim_s)

    def verify(self, ctx, out):
        """Positions per sequencer, less a known defect at migration.

        When the balancer moves a sequencer, the requests in flight at
        the old rank and the first ones at the new rank are handed the
        same positions (see README, "seen at seed").  Up to one repeat
        per client per move is therefore recorded, not failed; anything
        beyond that is an error.
        """
        per = self.CLIENTS_PER_SEQ
        clients = ctx.load.clients
        moved = [path for mds in ctx.cluster.mdss
                 for record in mds.balancer.audit.records()
                 for paths in record.get("moves", {}).values()
                 for path in paths]
        out.detail["sequencer_moves"] = len(moved)
        out.detail["duplicate_positions"] = sum(
            check_positions(
                [c.seq_trace for c in clients[i * per:(i + 1) * per]],
                ctx.stopped_at, f"{self.name} sequencer {i}",
                known_duplicates=per * moved.count(ctx.load.seq_path(i)))
            for i in range(self.SEQUENCERS))


class RadosRW(Workload):
    """Reads beside writes on a replicated and an erasure-coded pool.

    Reads skip replication, writes pay it, and the EC half adds the
    codec, all on the same OSD and store path: a gain for writes that
    costs reads shows here.  Each client owns its keys, because a read
    racing a ``write_full`` of the same EC object fails (see README).
    """

    name = "rados_rw"
    seed = 11
    SIM_S = 3.0
    OBJECTS = 256
    OBJECT_BYTES = 4096
    CLIENTS_PER_POOL = 2
    POOLS = {
        "rep": {"size": 2, "pg_num": 32},
        "ec": {"pg_num": 32, "ec": {"k": 2, "m": 1}},
        # As in DEFAULT_POOLS: keeps the map history the same with the
        # changelog plane on.
        CHANGELOG_POOL: MalacologyCluster.DEFAULT_POOLS[CHANGELOG_POOL],
    }

    def sizes(self, scale):
        return {"osds": 6, "mdss": 0, "pools": ["rep", "ec"],
                "objects_per_pool": self.OBJECTS,
                "object_bytes": self.OBJECT_BYTES,
                "clients_per_pool": self.CLIENTS_PER_POOL,
                "read_share": 0.5, "sim_s": self.SIM_S * scale}

    def setup(self, seed, scale, planes):
        cluster = build_cluster(planes, osds=6, mdss=0, seed=seed,
                                pools=self.POOLS)
        rng = random.Random(f"{seed}:{self.name}:prime")
        stored: Dict[Any, bytes] = {}

        def prime():
            for pool in ("rep", "ec"):
                for i in range(self.OBJECTS):
                    data = rng.randbytes(self.OBJECT_BYTES)
                    yield from cluster.admin.rados_write_full(
                        pool, f"o{i:03d}", data)
                    stored[pool, f"o{i:03d}"] = data

        cluster.do(prime())
        return SimpleNamespace(
            cluster=cluster, planes=planes, seed=seed, stored=stored,
            sim_s=self.SIM_S * scale, latencies=[], failed=0, wrong=0,
            stop=False)

    def _client(self, ctx, client, pool, index):
        rng = random.Random(f"{ctx.seed}:{self.name}:{pool}:{index}")
        mine = [f"o{i:03d}" for i in range(index, self.OBJECTS,
                                          self.CLIENTS_PER_POOL)]
        sim = ctx.cluster.sim
        while not ctx.stop:
            oid = rng.choice(mine)
            started = sim.now
            try:
                if rng.random() < 0.5:
                    data = yield from spanned(
                        client, client.rados_read(pool, oid),
                        "rados.read", ctx.planes)
                    ctx.wrong += data != ctx.stored[pool, oid]
                else:
                    data = rng.randbytes(self.OBJECT_BYTES)
                    yield from spanned(
                        client, client.rados_write_full(pool, oid, data),
                        "rados.write_full", ctx.planes)
                    ctx.stored[pool, oid] = data
            except MalacologyError:
                ctx.failed += 1
                continue
            ctx.latencies.append(sim.now - started)

    def run(self, ctx):
        cluster = ctx.cluster
        started = cluster.sim.now
        procs = []
        for pool in ("rep", "ec"):
            for index in range(self.CLIENTS_PER_POOL):
                client = cluster.new_client(f"{pool}-c{index}")
                procs.append(client.do(
                    self._client(ctx, client, pool, index)))
        cluster.run(ctx.sim_s)
        ctx.stop = True
        for proc in procs:
            cluster.sim.run_until_complete(proc)
        ctx.ran_s = cluster.sim.now - started

    def collect(self, ctx):
        return Outcome(attempted=len(ctx.latencies) + ctx.failed,
                       failed=ctx.failed, latencies=ctx.latencies,
                       sim_s=ctx.ran_s)

    def verify(self, ctx, out):
        if out.failed or ctx.wrong:
            raise CheckFailed(f"{self.name}: {out.failed} ops raised, "
                              f"{ctx.wrong} reads returned stale data")
        admin = ctx.cluster.admin

        def read_all():
            for (pool, oid), want in sorted(ctx.stored.items()):
                got = yield from admin.rados_read(pool, oid)
                if got != want:
                    raise CheckFailed(
                        f"{self.name}: {pool}/{oid} does not hold its "
                        "last acknowledged write")

        ctx.cluster.do(read_all())


class ZlogAppend(Workload):
    """ZLog append, the paper's second service, across the full stack.

    MDS sequencer, ``zlog.write`` object class, then OSD replication of
    a stripe object that grows with every append.  Structural sharing
    or delta replication of object state shows here and not on the
    sequencer workloads.
    """

    name = "zlog_append"
    seed = 7
    observe_scale = 0.25
    CLIENTS = 4
    APPENDS = 600
    WIDTH = 4
    ENTRY_BYTES = 64

    def sizes(self, scale):
        return {"osds": 4, "mdss": 1, "clients": self.CLIENTS,
                "appends_per_client": scaled(self.APPENDS, scale),
                "stripe_width": self.WIDTH,
                "entry_bytes": self.ENTRY_BYTES, "lease": "round-trip"}

    def setup(self, seed, scale, planes):
        cluster = build_cluster(planes, osds=4, mdss=1, seed=seed)
        cluster.do(SharedResourceInterface(cluster.admin).set_lease_policy(
            "round-trip"))
        layout = StripeLayout("bench", width=self.WIDTH)
        cluster.do(ZLog(cluster.admin, "bench", layout).create())
        logs = []
        for i in range(self.CLIENTS):
            log = ZLog(cluster.new_client(f"zlog-c{i}"), "bench")
            cluster.sim.run_until_complete(log.client.do(log.open()))
            logs.append(log)
        return SimpleNamespace(
            cluster=cluster, planes=planes, seed=seed, logs=logs,
            appends=scaled(self.APPENDS, scale), written={})

    def _client(self, ctx, log, index):
        rng = random.Random(f"{ctx.seed}:{self.name}:{index}")
        for _ in range(ctx.appends):
            data = rng.randbytes(self.ENTRY_BYTES)
            pos = yield from spanned(log.client, log.append(data),
                                     "zlog.append", ctx.planes)
            ctx.written[pos] = data

    def run(self, ctx):
        sim = ctx.cluster.sim
        started = sim.now
        procs = [log.client.do(self._client(ctx, log, i))
                 for i, log in enumerate(ctx.logs)]
        for proc in procs:
            sim.run_until_complete(proc)
        ctx.ran_s = sim.now - started

    def collect(self, ctx):
        lat = [s for log in ctx.logs
               for s in log.client.perf.samples("zlog.append")]
        return Outcome(attempted=ctx.appends * self.CLIENTS,
                       failed=ctx.appends * self.CLIENTS - len(lat),
                       latencies=lat, sim_s=ctx.ran_s)

    def verify(self, ctx, out):
        """Every position reads back its payload (timed: a layer view)."""
        total = ctx.appends * self.CLIENTS
        if sorted(ctx.written) != list(range(total)):
            raise CheckFailed(f"{self.name}: appends did not land on "
                              f"positions 0..{total - 1}")
        t0 = perf_counter()
        entries = ctx.cluster.do(
            ctx.logs[0].read_range(0, total, skip_holes=False))
        out.detail["readback_ops_per_s"] = total / (perf_counter() - t0)
        for pos, entry in entries:
            if entry["data"] != ctx.written[pos]:
                raise CheckFailed(f"{self.name}: position {pos} does "
                                  "not read back its payload")


class FsCreate(Workload):
    """mdtest-style creates into one directory, changelog stream live.

    The MDS mutation path (journal plus directory object to RADOS) with
    the changelog writer and audit consumer running.  Same MDS layer as
    ``seq_roundtrip`` but mutating, so an MDS change that helps one and
    hurts the other shows.
    """

    name = "fs_create"
    seed = 90
    planes = frozenset({"changelog"})
    observe_scale = 0.25
    CLIENTS = 4
    CREATES = 150
    #: Long enough for the consumer to catch up and trim to reclaim.
    DRAIN_S = 3 * ChangelogWriter.TRIM_INTERVAL

    def sizes(self, scale):
        return {"osds": 3, "mdss": 1, "mons": 3, "clients": self.CLIENTS,
                "creates_per_client": scaled(self.CREATES, scale),
                "directories": 1, "drain_sim_s": self.DRAIN_S}

    def setup(self, seed, scale, planes):
        cluster = build_cluster(planes, osds=3, mdss=1, mons=3, seed=seed)
        cluster.do(cluster.admin.fs_mkdir("/bench"))
        clients = [cluster.new_client(f"fs-c{i}")
                   for i in range(self.CLIENTS)]
        return SimpleNamespace(
            cluster=cluster, planes=planes, clients=clients,
            creates=scaled(self.CREATES, scale), latencies=[])

    def _client(self, ctx, client, index):
        sim = ctx.cluster.sim
        for n in range(ctx.creates):
            started = sim.now
            yield from spanned(
                client, client.fs_create(f"/bench/c{index}-{n:04d}"),
                "fs.create", ctx.planes)
            ctx.latencies.append(sim.now - started)

    def run(self, ctx):
        cluster = ctx.cluster
        started = cluster.sim.now
        procs = [client.do(self._client(ctx, client, i))
                 for i, client in enumerate(ctx.clients)]
        for proc in procs:
            cluster.sim.run_until_complete(proc)
        ctx.ran_s = cluster.sim.now - started
        cluster.run(self.DRAIN_S)

    def collect(self, ctx):
        total = ctx.creates * self.CLIENTS
        return Outcome(attempted=total,
                       failed=total - len(ctx.latencies),
                       latencies=ctx.latencies, sim_s=ctx.ran_s)

    def verify(self, ctx, out):
        cluster = ctx.cluster
        want = sorted(f"c{i}-{n:04d}" for i in range(self.CLIENTS)
                      for n in range(ctx.creates))
        names = cluster.do(cluster.admin.fs_readdir("/bench"))
        if sorted(names) != want:
            raise CheckFailed(f"{self.name}: readdir lists {len(names)} "
                              f"names, expected {len(want)}")
        if "changelog" not in ctx.planes:
            return
        created = sorted(rec["path"] for rec in
                         cluster.audit_pipeline.received
                         if rec["kind"] == "create")
        if created != [f"/bench/{name}" for name in want]:
            raise CheckFailed(f"{self.name}: the audit consumer did not "
                              "receive each create exactly once")
        retained = cluster.changelog_writer.status()["retained"]
        if retained:
            raise CheckFailed(f"{self.name}: {retained} changelog "
                              "records retained after the drain")


class MapGossip(Workload):
    """Fig. 8: interface updates propagating to 120 OSDs.

    Paxos commit on the monitors, gossip fan-out between OSDs and an
    object-class compile on 120 daemons.  The only workload with large
    queue depth and daemon count, and the only one on Service
    Metadata.  An op is one OSD making one version live.
    """

    name = "map_gossip"
    seed = 81
    OSDS = 120
    UPDATES = 80
    PING_INTERVAL = 0.2
    LIVE_DEADLINE_S = 5.0
    SOURCE = ("def ping(ctx, args):\n"
              "    return {'v': args.get('v')}\n\n"
              "METHODS = {'ping': ping}\n")

    def sizes(self, scale):
        return {"osds": self.OSDS, "mdss": 0,
                "updates": scaled(self.UPDATES, scale),
                "proposal_interval": 0.05,
                "ping_interval": self.PING_INTERVAL}

    def setup(self, seed, scale, planes):
        # Anti-entropy rate for straggler pulls, as in the Fig. 8
        # benchmark; OSDs read it once, at boot.
        old, OSD.PING_INTERVAL = OSD.PING_INTERVAL, self.PING_INTERVAL
        try:
            cluster = build_cluster(planes, osds=self.OSDS, mdss=0,
                                    seed=seed, proposal_interval=0.05)
        finally:
            OSD.PING_INTERVAL = old
        live: Dict[int, Dict[str, float]] = {}

        def hook_for(osd: str):
            def hook(name: str, version: int, t: float) -> None:
                live.setdefault(version, {})[osd] = t
            return hook

        for osd in cluster.osds:
            osd.interface_live_hook = hook_for(osd.name)
        return SimpleNamespace(
            cluster=cluster, planes=planes, live=live, latencies=[],
            updates=scaled(self.UPDATES, scale))

    def run(self, ctx):
        cluster, admin = ctx.cluster, ctx.cluster.admin
        started = cluster.sim.now
        for version in range(1, ctx.updates + 1):
            cluster.do(spanned(
                admin, admin.rados_install_interface(
                    "bench_iface", version, self.SOURCE),
                "install_interface", ctx.planes))
            committed = cluster.sim.now
            arrived = ctx.live.setdefault(version, {})
            while (len(arrived) < self.OSDS and cluster.sim.now
                   < committed + self.LIVE_DEADLINE_S):
                cluster.run(0.05)
            ctx.latencies.extend(t - committed for t in arrived.values())
        ctx.ran_s = cluster.sim.now - started

    def collect(self, ctx):
        total = ctx.updates * self.OSDS
        return Outcome(attempted=total,
                       failed=total - len(ctx.latencies),
                       latencies=ctx.latencies, sim_s=ctx.ran_s)

    def verify(self, ctx, out):
        behind = [osd.name for osd in ctx.cluster.osds
                  if osd.registry.version_of("bench_iface") != ctx.updates]
        if out.failed or behind:
            raise CheckFailed(
                f"{self.name}: {out.failed} OSD updates missed the "
                f"deadline; {len(behind)} OSDs lack the last version")


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SeqCached(), SeqRoundtrip(), RadosRW(),
                        ZlogAppend(), FsCreate(), MapGossip())}
