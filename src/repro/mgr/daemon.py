"""The manager daemon: cluster-wide scrape, health, and audit service.

The Ceph analog is ``ceph-mgr``: a daemon that subscribes to the
cluster maps, periodically pulls every daemon's perf registry, and
turns the stream into operator-facing state — ``status`` / ``health``
summaries, Prometheus metrics, and the Mantle decision audit trail.

Determinism contract
--------------------
Observing the cluster must not change it.  The mgr therefore:

* scrapes on a **fixed period** of the simulated clock with zero
  jitter (no RNG stream is ever drawn);
* installs a **fixed-latency override** for its own endpoint on the
  network, so its messages never draw from the shared ``network`` RNG
  stream — every other daemon sees exactly the latency sequence it
  would see in an unmanaged run;
* writes to the cluster log **only on health-state transitions**, so
  while health is steady a seeded run with the mgr enabled produces
  byte-identical daemon schedules to one without it (pinned by
  ``tests/integration/test_observer_transparency.py``).  A transition
  is a Paxos write: from then on the tapes differ.

A daemon that crashes mid-scrape surfaces as a failed scrape entry and
a ``DAEMON_UNREACHABLE`` health detail — never as a failed tick.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.errors import MalacologyError
from repro.mgr.audit import merge_trails
from repro.mgr.health import (
    CHECKS,
    HEALTH_ERR,
    HEALTH_OK,
    HEALTH_WARN,
    ClusterSample,
    HealthReport,
    evaluate_health,
    observe_planes,
)
from repro.mgr.prometheus import prometheus_export
from repro.mgr.timeseries import DaemonSeries
from repro.monitor.cluster_log import ERROR, INFO, WARN
from repro.monitor.monitor import MonitorClient
from repro.msg import Daemon
from repro.sim.kernel import Simulator
from repro.sim.network import FixedLatency, Network

#: Cluster-log severity for each degraded health status.
_LOG_SEVERITY = {HEALTH_WARN: WARN, HEALTH_ERR: ERROR}


class MgrDaemon(Daemon, MonitorClient):
    """Scrapes, aggregates, and judges the health of every daemon."""

    SCRAPE_INTERVAL = 2.0
    SCRAPE_TIMEOUT = 1.0
    AUDIT_CAPACITY = 4096
    #: Fixed one-way delay for all mgr traffic (see module docstring).
    MGR_LATENCY = 100e-6

    def __init__(self, sim: Simulator, network: Network, name: str,
                 mon_names: List[str], targets: Dict[str, str]):
        super().__init__(sim, network, name)
        network.set_latency_override(name, FixedLatency(self.MGR_LATENCY))
        self.init_mon_client(mon_names)
        #: daemon name -> role ("mon" / "osd" / "mds").
        self.targets = dict(targets)
        self.checks = CHECKS
        self.booted = False

        # Volatile aggregation state (the mgr owns no cluster state:
        # all of this is reconstructible from future scrapes).
        self.series: Dict[str, DaemonSeries] = {}
        self.last_sample: Optional[ClusterSample] = None
        self.last_report: Optional[HealthReport] = None
        self.scrape_count = 0
        self._audit: Dict[str, List[Dict[str, Any]]] = {}
        self._audit_seen: Dict[str, int] = {}
        #: check name -> status at the previous evaluation (transition
        #: detection); overall status previous value.
        self._prev_checks: Dict[str, str] = {}
        self._prev_status: Optional[str] = None

        self.perf.gauge_fn("mgr.scrapes", lambda: self.scrape_count)
        self.perf.gauge_fn("mgr.targets", lambda: len(self.targets))
        self.register_admin_command("status", lambda args: self.status())
        self.register_admin_command("health", lambda args: self.health())
        self.register_admin_command(
            "metrics.export", lambda args: self.metrics_export())
        self.register_admin_command(
            "audit.dump", lambda args: self.audit_dump(args))
        self.register_admin_command(
            "changelog.status", lambda args: self.changelog_status())
        self.spawn(self._boot(), name=f"{self.name}:boot")

    # ------------------------------------------------------------------
    # Boot / scrape loop
    # ------------------------------------------------------------------
    def _boot(self) -> Generator:
        yield from self.mon_subscribe(["mon", "osd", "mds"])
        yield from self.mon_get_map("osd")
        yield from self.mon_get_map("mds")
        self.every(self.SCRAPE_INTERVAL, self._scrape_tick,
                   name=f"{self.name}:scrape")
        self.booted = True

    def _scrape_tick(self) -> Generator:
        return self._scrape()

    def _scrape(self) -> Generator:
        """One full scrape pass: dumps, audit, health, transitions."""
        sample = ClusterSample(time=self.sim.now,
                               roles=dict(self.targets),
                               series=self.series)
        for target in sorted(self.targets):
            try:
                dump = yield self.call(target, "telemetry.dump", None,
                                       timeout=self.SCRAPE_TIMEOUT)
            except MalacologyError as exc:
                # Mid-scrape crash/timeout: flag it, keep scraping.
                sample.failed[target] = f"{exc.code}: {exc}"
                self.perf.incr("mgr.scrape.failed")
                continue
            sample.observe(target, self.targets[target], dump)
            if self.targets[target] == "mds":
                yield from self._collect_audit(target)
        sample.osdmap = self.cached_maps.get("osd")
        sample.mdsmap = self.cached_maps.get("mds")
        observe_planes(sample, self.sim, self.network)
        report = evaluate_health(self.checks, sample)
        yield from self._log_transitions(report)
        self.last_sample = sample
        self.last_report = report
        self.scrape_count += 1
        self.perf.incr("mgr.scrape")

    def _collect_audit(self, mds: str) -> Generator:
        """Pull fresh Mantle audit records from one MDS (if any).

        MDSs without an attached balancer have no ``mantle.audit``
        command; the resulting error is expected and swallowed.
        """
        seen = self._audit_seen.get(mds, 0)
        try:
            records = yield self.call(mds, "mantle.audit",
                                      {"since_seq": seen},
                                      timeout=self.SCRAPE_TIMEOUT)
        except MalacologyError:
            return
        if not records:
            return
        trail = self._audit.setdefault(mds, [])
        trail.extend(records)
        self._audit_seen[mds] = max(seen,
                                    max(r["seq"] for r in records))
        if len(trail) > self.AUDIT_CAPACITY:
            del trail[: len(trail) - self.AUDIT_CAPACITY]
        self.perf.incr("mgr.audit.records", len(records))

    # ------------------------------------------------------------------
    # Health transitions -> cluster log
    # ------------------------------------------------------------------
    def _log_transitions(self, report: HealthReport) -> Generator:
        """Log check raises/clears and overall status flips.

        Only *transitions* are logged — steady state (healthy or not)
        is silent, which both keeps the log readable and keeps a
        healthy managed run schedule-identical to an unmanaged one.
        """
        current = {r.name: r for r in report.results}
        entries = []
        for name, result in sorted(current.items()):
            if self._prev_checks.get(name) != result.status:
                entries.append((_LOG_SEVERITY[result.status],
                                f"health check {name} "
                                f"{result.status}: {result.summary}"))
        for name in sorted(self._prev_checks):
            if name not in current:
                entries.append((INFO, f"health check {name} cleared"))
        if self._prev_status is not None \
                and report.status != self._prev_status:
            severity = _LOG_SEVERITY.get(report.status, INFO)
            entries.append((severity,
                            f"cluster health is now {report.status} "
                            f"(was {self._prev_status})"))
        self._prev_checks = {n: r.status for n, r in current.items()}
        self._prev_status = report.status
        for severity, message in entries:
            self.perf.incr("mgr.health.transition")
            try:
                yield from self.mon_log(severity, message)
            except MalacologyError:
                # Monitors unreachable: the health report still stands;
                # the transition will not re-log, but the state itself
                # is queryable via the mgr admin commands.
                self.perf.incr("mgr.log.failed")

    # ------------------------------------------------------------------
    # Admin command surface
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """The latest health report (``ceph health detail``)."""
        if self.last_report is None:
            return {"time": self.sim.now, "status": HEALTH_OK,
                    "checks": {}, "note": "no scrape completed yet"}
        return self.last_report.to_dict()

    def status(self) -> Dict[str, Any]:
        """One-screen cluster summary (``ceph -s``)."""
        health = self.health()
        osdmap = self.cached_maps.get("osd")
        mdsmap = self.cached_maps.get("mds")
        out: Dict[str, Any] = {
            "time": self.sim.now,
            "health": {"status": health["status"],
                       "checks": {name: c["summary"] for name, c in
                                  health.get("checks", {}).items()}},
            "scrapes": self.scrape_count,
            "targets": len(self.targets),
            "unreachable": sorted(self.last_sample.failed)
            if self.last_sample else [],
            "audit_records": sum(len(v) for v in self._audit.values()),
        }
        if osdmap is not None:
            up = osdmap.up_osds()
            out["osdmap"] = {"epoch": osdmap.epoch,
                             "osds": len(osdmap.osds),
                             "up": len(up)}
        if mdsmap is not None:
            out["mdsmap"] = {"epoch": mdsmap.epoch,
                             "ranks": len(mdsmap.ranks)}
        return out

    def metrics_export(self) -> str:
        """Prometheus text format over the last scrape's dumps.

        Daemons and the simulator-wide planes alike: the ``network``
        target always, ``kernel`` while a profiler is installed and
        ``chaos`` while an engine is attached (see
        :func:`~repro.mgr.health.observe_planes`).  Readings are as of
        that scrape, so the export itself costs no cluster traffic.
        """
        sample = self.last_sample
        return prometheus_export(sample.dumps if sample else {})

    def changelog_status(self) -> Dict[str, Any]:
        """Changelog stream health, derived from the last scrape.

        Pure aggregation over the already-collected dumps (no cluster
        traffic): append/trim totals, retained backlog, per-cursor lag
        gauges, and audit pipeline record counts.
        """
        daemons = sorted(n for n, role in self.targets.items()
                         if role == "changelog")
        out: Dict[str, Any] = {
            "time": self.sim.now,
            "daemons": daemons,
            "appended": 0.0,
            "trimmed": 0.0,
            "consumed": 0.0,
            "buffered": 0.0,
            "retained": 0.0,
            "audit_records": 0.0,
            "lag": {},
        }
        dumps = self.last_sample.dumps if self.last_sample else {}
        for name in daemons:
            dump = dumps.get(name)
            if dump is None:
                continue
            counters = dump.get("counters", {})
            gauges = dump.get("gauges", {})
            out["appended"] += counters.get("changelog.appended", 0.0)
            out["trimmed"] += counters.get("changelog.trimmed", 0.0)
            out["consumed"] += counters.get("changelog.consumed", 0.0)
            out["buffered"] += gauges.get("changelog.buffered", 0.0)
            out["retained"] += gauges.get("changelog.retained", 0.0)
            out["audit_records"] += gauges.get("audit.records", 0.0)
            for gname, value in gauges.items():
                if gname.startswith("changelog.lag."):
                    cursor = gname[len("changelog.lag."):]
                    out["lag"][cursor] = value
        report = self.health()
        out["health"] = {
            name: check["summary"]
            for name, check in report.get("checks", {}).items()
            if name.startswith("CHANGELOG_")}
        return out

    def audit_dump(self, args: Optional[Dict[str, Any]] = None
                   ) -> List[Dict[str, Any]]:
        """The merged, time-ordered Mantle decision history.

        ``{"since": t}`` restricts to records at simulated time >= t;
        ``{"migrations_only": true}`` keeps only ticks that moved
        subtrees.
        """
        args = args or {}
        records = merge_trails(self._audit)
        since = args.get("since")
        if since is not None:
            records = [r for r in records if r["time"] >= float(since)]
        if args.get("migrations_only"):
            records = [r for r in records if r.get("moves")]
        return records

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        # Everything the mgr holds is derived observation state.
        self.booted = False
        self.series = {}
        self.last_sample = None
        self.last_report = None
        self.scrape_count = 0
        self._audit = {}
        # _audit_seen survives conceptually (dedup hint), but the MDS
        # trails are volatile too; starting from zero only re-fetches
        # what the MDSs still retain.
        self._audit_seen = {}
        self._prev_checks = {}
        self._prev_status = None

    def on_restart(self) -> None:
        self.spawn(self._boot(), name=f"{self.name}:reboot")
