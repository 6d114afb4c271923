"""Cluster builder: boot a whole Malacology deployment in one call.

Wires monitors (Paxos quorum), OSDs (replicated object store), and
metadata servers onto one simulated network, creates the standard
pools, and waits until every daemon is serviceable.  This is the entry
point examples and benchmarks use::

    cluster = MalacologyCluster.build(osds=4, mdss=2, seed=7)
    client = cluster.new_client("app")
    cluster.do(client.fs_mkdir("/logs"))
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.changelog import (
    CHANGELOG_POOL,
    AuditPipeline,
    ChangelogConsumer,
    ChangelogLayout,
    ChangelogProducer,
    ChangelogWriter,
)
from repro.errors import MalacologyError
from repro.mds.client import FsClient
from repro.mds.server import MDS, METADATA_POOL
from repro.mgr.daemon import MgrDaemon
from repro.mgr.health import CHECKS, evaluate_health, sample_cluster
from repro.monitor.monitor import Monitor, MonitorClient
from repro.msg import Daemon
from repro.rados.client import RadosClient
from repro.rados.osd import OSD
from repro.sim import Network, Simulator
from repro.sim.kernel import Process
from repro.sim.network import LatencyModel, lan_latency


class MalacologyClient(Daemon, RadosClient, FsClient):
    """A full-stack client: monitor, object store, and file system."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 mon_names: List[str]):
        super().__init__(sim, network, name)
        self.init_mon_client(mon_names)
        self.init_fs_client()
        self.init_watch_client()

    def do(self, gen: Generator, name: str = "script") -> Process:
        return self.spawn(gen, name=f"{self.name}:{name}")


class MalacologyCluster:
    """A booted simulation deployment plus conveniences to drive it."""

    DEFAULT_POOLS = {
        METADATA_POOL: {"size": 2, "pg_num": 32},
        "data": {"size": 2, "pg_num": 32},
        # Present in every cluster (so the map/Paxos history is the
        # same with or without the changelog enabled); size-1 so shard
        # appends never generate replication traffic in the shared
        # schedule.
        CHANGELOG_POOL: {"size": 1, "pg_num": 8},
    }

    def __init__(self, sim: Simulator, net: Network,
                 mons: List[Monitor], osds: List[OSD], mdss: List[MDS],
                 admin: MalacologyClient):
        self.sim = sim
        self.net = net
        self.mons = mons
        self.osds = osds
        self.mdss = mdss
        self.admin = admin
        self.mgr: Optional[MgrDaemon] = None
        self.changelog_writer: Optional[ChangelogWriter] = None
        self.changelog_consumers: List[ChangelogConsumer] = []
        self._client_seq = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, osds: int = 4, mdss: int = 1, mons: int = 3,
              seed: int = 0, proposal_interval: float = 0.1,
              pools: Optional[Dict[str, Dict[str, Any]]] = None,
              latency: Optional[LatencyModel] = None,
              mon_backing: str = "ram", mgr: bool = False,
              changelog: bool = False,
              sanitize: Optional[bool] = None,
              profile: bool = False) -> "MalacologyCluster":
        sim = Simulator(seed=seed)
        # sanitize=True opts this cluster into the runtime protocol
        # sanitizers; False forces them off even when the
        # MALACOLOGY_SANITIZE env var installed them; None keeps
        # whatever the environment decided.
        if sanitize:
            from repro.analysis.sanitizers import install_sanitizers
            install_sanitizers(sim)
        elif sanitize is False:
            sim.sanitizers = None
        # The profiler planes are passive (counter bumps and wall-clock
        # reads only), so a profiled cluster's event schedule is
        # byte-identical to an unprofiled one — pinned by an
        # integration test.
        if profile:
            from repro.profiling import install_profiler
            install_profiler(sim)
        net = Network(sim, latency=latency or lan_latency())
        mon_names = [f"mon{i}" for i in range(mons)]
        monitors = [
            Monitor(sim, net, name, mon_names,
                    proposal_interval=proposal_interval,
                    backing=mon_backing)
            for name in mon_names
        ]
        _settle(sim, lambda: any(m.is_leader for m in monitors),
                "monitor quorum")
        osd_daemons = [OSD(sim, net, f"osd{i}", mon_names)
                       for i in range(osds)]
        _settle(sim, lambda: all(o.booted for o in osd_daemons),
                "OSD boot")
        admin = MalacologyClient(sim, net, "admin", mon_names)
        for pool_name, cfg in (pools or cls.DEFAULT_POOLS).items():
            proc = admin.do(admin.rados_create_pool(
                pool_name, size=cfg.get("size", 2),
                pg_num=cfg.get("pg_num", 32), ec=cfg.get("ec"),
                backend=cfg.get("backend"), cache=cfg.get("cache")))
            sim.run_until_complete(proc)
        mds_daemons = [MDS(sim, net, f"mds{i}", mon_names, rank=i)
                       for i in range(mdss)]
        _settle(sim, lambda: all(m.booted for m in mds_daemons),
                "MDS boot")
        cluster = cls(sim=sim, net=net, mons=monitors,
                      osds=osd_daemons, mdss=mds_daemons, admin=admin)
        if changelog:
            # Same non-perturbation contract as the mgr (see
            # enable_changelog); boots during the settle window below.
            cluster.enable_changelog()
        if mgr:
            # Created before the settle window so the mgr boots during
            # it.  Because the mgr's traffic never touches the shared
            # network RNG stream (endpoint latency override) and its
            # ticker is jitter-free, the other daemons' schedules are
            # identical with or without it.
            cluster.enable_mgr()
        sim.run(until=sim.now + 1.0)  # let maps settle everywhere
        return cluster

    def enable_mgr(self) -> MgrDaemon:
        """Attach the manager daemon ``mgr0``, scraping every booted daemon.

        Does not advance simulated time; run the sim (or call
        ``run()``) afterwards to let it boot and scrape.
        """
        if self.mgr is not None:
            return self.mgr
        targets: Dict[str, str] = {}
        for m in self.mons:
            targets[m.name] = "mon"
        for o in self.osds:
            targets[o.name] = "osd"
        for d in self.mdss:
            targets[d.name] = "mds"
        for d in self.changelog_daemons():
            targets[d.name] = "changelog"
        self.mgr = MgrDaemon(self.sim, self.net, "mgr0", self.mon_names,
                             targets)
        return self.mgr

    def enable_changelog(self, shards: int = 4, audit: bool = True,
                         name: str = "chlog0"
                         ) -> ChangelogWriter:
        """Attach the changelog subsystem: writer, producers, audit.

        Does not advance simulated time (same as ``enable_mgr``); the
        writer and consumers boot during the next sim run.  All
        changelog daemons install fixed-latency network overrides and
        producers emit via fire-and-forget casts, so the non-changelog
        daemons' schedules are byte-identical with or without this
        (pinned by an integration test).
        """
        if self.changelog_writer is not None:
            return self.changelog_writer
        layout = ChangelogLayout(width=shards)
        self.changelog_writer = ChangelogWriter(
            self.sim, self.net, name, self.mon_names, layout=layout)
        for d in [*self.mdss, *self.osds]:
            d.changelog = ChangelogProducer(d, name)
        if audit:
            self.changelog_consumers.append(AuditPipeline(
                self.sim, self.net, f"{name}-audit", self.mon_names,
                layout=layout))
        return self.changelog_writer

    def changelog_daemons(self) -> List[Daemon]:
        extra = [self.changelog_writer] \
            if self.changelog_writer is not None else []
        return [*extra, *self.changelog_consumers]

    @property
    def audit_pipeline(self) -> Optional[AuditPipeline]:
        for c in self.changelog_consumers:
            if isinstance(c, AuditPipeline):
                return c
        return None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    @property
    def mon_names(self) -> List[str]:
        return [m.name for m in self.mons]

    def new_client(self, name: Optional[str] = None) -> MalacologyClient:
        if name is None:
            self._client_seq += 1
            name = f"client{self._client_seq}"
        return MalacologyClient(self.sim, self.net, name, self.mon_names)

    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def do(self, gen: Generator, limit: float = 1e9) -> Any:
        """Run one admin-client script to completion."""
        proc = self.admin.do(gen)
        return self.sim.run_until_complete(proc, limit=limit)

    # ------------------------------------------------------------------
    # Telemetry aggregation (cluster-wide admin socket)
    # ------------------------------------------------------------------
    def daemons(self) -> List[Daemon]:
        """Every daemon the cluster booted (clients are not included)."""
        extra = [self.mgr] if self.mgr is not None else []
        return [*self.mons, *self.osds, *self.mdss,
                *self.changelog_daemons(), *extra, self.admin]

    def daemon_command(self, daemon: str, command: str,
                       args: Optional[Dict[str, Any]] = None) -> Any:
        """Admin-socket command by daemon name, with structured errors.

        Never raises for operational failures: an unknown daemon,
        unknown command, or a daemon-side error comes back as
        ``{"error": {"code": ..., "message": ...}}`` so callers (and
        the mgr's own tooling) can act on the code instead of
        unwinding through exceptions.
        """
        by_name = {d.name: d for d in self.daemons()}
        target = by_name.get(daemon)
        if target is None:
            return {"error": {"code": "ENOENT",
                              "message": f"no such daemon: {daemon!r}"}}
        try:
            return target.admin_command(command, args)
        except MalacologyError as exc:
            return {"error": {"code": exc.code, "message": str(exc)}}

    def telemetry_dump(self) -> Dict[str, Any]:
        """``telemetry.dump`` on every daemon, keyed by daemon name.

        Out-of-band like Ceph's admin socket: works even when parts of
        the cluster are down (a crashed daemon still answers with its
        — reset — registry).
        """
        return {d.name: d.admin_command("telemetry.dump")
                for d in self.daemons()}

    def store_status(self, pool: Optional[str] = None) -> Dict[str, Any]:
        """``store.status`` across all OSDs, keyed by OSD name.

        Out-of-band (admin socket): shows each hosted PG's backend
        profile and occupancy, optionally filtered to one pool.
        """
        args = {"pool": pool} if pool is not None else None
        return {o.name: o.admin_command("store.status", args)
                for o in self.osds}

    def profile_status(self) -> Dict[str, Any]:
        """``profile.status``: kernel-plane summary (out-of-band)."""
        return self.admin.admin_command("profile.status")

    def profile_dump(self, scope: str = "cluster",
                     collapsed: bool = False) -> Dict[str, Any]:
        """Full profiler dump; cluster scope includes the wall plane."""
        args: Dict[str, Any] = {"scope": scope}
        if collapsed:
            args["collapsed"] = True
        return self.admin.admin_command("profile.dump", args)

    def write_trace(self, path: str) -> str:
        """Export collected spans + kernel tape as a Perfetto
        ``trace.json`` (loadable at https://ui.perfetto.dev)."""
        from repro.profiling import write_chrome_trace
        return write_chrome_trace(self.sim, path)

    def telemetry_reset(self) -> None:
        """Clear perf counters cluster-wide and drop collected traces."""
        for d in self.daemons():
            d.admin_command("telemetry.reset")
        if self.sim.trace_collector is not None:
            self.sim.trace_collector.reset()

    def telemetry_trace(self, trace_id: Optional[int] = None,
                        render: bool = False) -> Any:
        """List trace ids, or dump/render one span tree.

        The collector is cluster-wide (all daemons share it through the
        simulator), so any daemon answers identically; we ask the admin
        client.
        """
        args: Dict[str, Any] = {}
        if trace_id is not None:
            args["trace_id"] = trace_id
        if render:
            args["render"] = True
        return self.admin.admin_command("telemetry.trace", args)

    # ------------------------------------------------------------------
    # Health (mgr-backed when enabled, out-of-band otherwise)
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Cluster health report (``ceph health detail`` analogue).

        With a mgr: its last scrape's report.  Without one: evaluate
        every health check against an out-of-band sample right now —
        no messages, no simulated time.
        """
        if self.mgr is not None and self.mgr.alive:
            return self.mgr.admin_command("health")
        sample = sample_cluster(self)
        return evaluate_health(CHECKS, sample).to_dict()

    def status(self) -> Dict[str, Any]:
        """``ceph -s`` analogue (requires an enabled mgr)."""
        if self.mgr is None:
            raise RuntimeError(
                "cluster status requires a mgr; build with mgr=True "
                "or call enable_mgr()")
        return self.mgr.admin_command("status")

    def sanitizer_report(self) -> List[Dict[str, Any]]:
        """Violations the protocol sanitizers recorded (if enabled).

        Runs the end-of-run liveness checks first; returns ``[]`` when
        sanitizers are off or nothing was violated.
        """
        registry = self.sim.sanitizers
        if registry is None:
            return []
        registry.finish()
        return registry.to_dict()

    def mds_of_rank(self, rank: int) -> MDS:
        for mds in self.mdss:
            if mds.rank == rank:
                return mds
        raise KeyError(f"no MDS with rank {rank}")

    def leader_monitor(self) -> Monitor:
        for m in self.mons:
            if m.alive and m.is_leader:
                return m
        raise RuntimeError("no monitor leader")


def _settle(sim: Simulator, ready, what: str,
            deadline: float = 120.0) -> None:
    start = sim.now
    while sim.now - start < deadline:
        if ready():
            return
        sim.run(until=sim.now + 0.5)
    raise AssertionError(f"cluster failed to settle: {what}")
