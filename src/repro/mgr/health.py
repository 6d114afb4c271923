"""Pluggable cluster health checks (Ceph mgr's ``health`` module).

A :class:`HealthCheck` looks at one :class:`ClusterSample` — the most
recent scrape of every daemon's ``telemetry.dump`` plus the cluster
maps and the per-daemon time series — and either stays silent (healthy)
or returns a :class:`HealthCheckResult` with a severity and structured
detail.  The overall cluster status is the worst individual result:
``HEALTH_OK`` < ``HEALTH_WARN`` < ``HEALTH_ERR``, exactly the ladder
``ceph -s`` reports.

Checks are pure functions of the sample: no simulated time, no RNG, no
messages.  That is what lets the same checks run both inside the mgr
daemon (fed by in-band scrapes) and out-of-band at the end of a
benchmark via :func:`sample_cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.mgr.timeseries import DaemonSeries

HEALTH_OK = "HEALTH_OK"
HEALTH_WARN = "HEALTH_WARN"
HEALTH_ERR = "HEALTH_ERR"

_RANK = {HEALTH_OK: 0, HEALTH_WARN: 1, HEALTH_ERR: 2}


def worst_status(statuses: List[str]) -> str:
    """The most severe of the given statuses (OK when empty)."""
    worst = HEALTH_OK
    for status in statuses:
        if _RANK[status] > _RANK[worst]:
            worst = status
    return worst


@dataclass
class ClusterSample:
    """Everything a health check may look at for one evaluation."""

    time: float
    #: daemon name -> its ``telemetry.dump`` payload.
    dumps: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: daemon name -> error string for daemons the scrape could not
    #: reach (crashed or unknown mid-scrape).
    failed: Dict[str, str] = field(default_factory=dict)
    #: daemon name -> role ("mon" / "osd" / "mds" / "client" / "mgr").
    roles: Dict[str, str] = field(default_factory=dict)
    #: Latest cluster maps (may be None before the first map arrives).
    osdmap: Optional[Any] = None
    mdsmap: Optional[Any] = None
    #: daemon name -> retained time series across scrapes.
    series: Dict[str, DaemonSeries] = field(default_factory=dict)
    #: Nemesis engine status (``sim.chaos.status()``) when a chaos
    #: engine is attached to the kernel; None otherwise.
    chaos: Optional[Dict[str, Any]] = None
    #: Network-plane counters (``Network.stats()``), including the
    #: cause-labeled drop counters.
    netstats: Optional[Dict[str, Any]] = None

    def named(self, role: str) -> List[str]:
        return sorted(n for n, r in self.roles.items() if r == role)

    def series_of(self, daemon: str) -> DaemonSeries:
        s = self.series.get(daemon)
        if s is None:
            s = self.series[daemon] = DaemonSeries()
        return s


@dataclass(frozen=True)
class HealthCheckResult:
    """One firing check: severity plus machine-readable detail."""

    name: str
    status: str
    summary: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "status": self.status,
                "summary": self.summary, "detail": dict(self.detail)}


class HealthReport:
    """The aggregate of one evaluation pass over all checks."""

    def __init__(self, time: float,
                 results: List[HealthCheckResult]):
        self.time = time
        self.results = list(results)
        self.status = worst_status([r.status for r in results])

    def check(self, name: str) -> Optional[HealthCheckResult]:
        for r in self.results:
            if r.name == name:
                return r
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "status": self.status,
            "checks": {r.name: r.to_dict() for r in self.results},
        }


class HealthCheck:
    """Base class: subclasses override :meth:`evaluate`.

    ``name`` is the stable check identifier (``OSD_DOWN`` style, like
    Ceph's health-check codes); it keys transition tracking and the
    cluster-log messages.
    """

    name = "CHECK"

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        raise NotImplementedError

    def result(self, status: str, summary: str,
               **detail: Any) -> HealthCheckResult:
        return HealthCheckResult(name=self.name, status=status,
                                 summary=summary, detail=detail)


class OsdDownCheck(HealthCheck):
    """OSDs marked down in the OSD map (peer pings reported them)."""

    name = "OSD_DOWN"

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        m = sample.osdmap
        if m is None:
            return None
        down = sorted(name for name, state in m.osds.items()
                      if state != "up")
        if not down:
            return None
        return self.result(
            HEALTH_WARN, f"{len(down)} osd(s) down: {', '.join(down)}",
            osds=down, epoch=m.epoch)


class DaemonUnreachableCheck(HealthCheck):
    """Daemons the last scrape could not reach (crashed mid-scrape)."""

    name = "DAEMON_UNREACHABLE"

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        if not sample.failed:
            return None
        names = sorted(sample.failed)
        return self.result(
            HEALTH_WARN,
            f"scrape failed for {len(names)} daemon(s): "
            f"{', '.join(names)}",
            daemons={n: sample.failed[n] for n in names})


class PaxosStallCheck(HealthCheck):
    """A monitor sits on pending transactions but commits nothing.

    Fires when some monitor has held pending client transactions for a
    full observation window while its ``paxos.commit`` counter did not
    advance — consensus is wedged, which is an error, not a warning.
    """

    name = "PAXOS_STALL"

    def __init__(self, window: float = 10.0, min_scrapes: int = 3):
        self.window = window
        self.min_scrapes = min_scrapes

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        stalled = {}
        for mon in sample.named("mon"):
            series = sample.series.get(mon)
            if series is None:
                continue
            pending = series.maybe("gauge:paxos.pending_txns")
            if pending is None or len(pending) < self.min_scrapes:
                continue
            if pending.min_over(self.window) <= 0:
                continue  # drained at some point in the window
            commits = series.maybe("counter:paxos.commit")
            committed = commits.delta(self.window) if commits else 0.0
            if committed <= 0:
                latest = pending.latest()
                stalled[mon] = latest[1] if latest else 0.0
        if not stalled:
            return None
        return self.result(
            HEALTH_ERR,
            f"paxos stalled on {', '.join(sorted(stalled))}: pending "
            f"transactions but no commits for {self.window:.0f}s",
            monitors=stalled, window=self.window)


class MdsLatencyRegressionCheck(HealthCheck):
    """Recent MDS request latency regressed against its own history."""

    name = "MDS_LATENCY_REGRESSION"

    def __init__(self, factor: float = 3.0, recent: float = 10.0,
                 min_ops: float = 20.0):
        self.factor = factor
        self.recent = recent
        self.min_ops = min_ops

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        regressed = {}
        for mds in sample.named("mds"):
            series = sample.series.get(mds)
            if series is None:
                continue
            mean = series.maybe("latency:rpc.mds_req:mean")
            count = series.maybe("latency:rpc.mds_req:count")
            if mean is None or count is None or len(mean) < 4:
                continue
            if count.delta(self.recent) < self.min_ops:
                continue  # too little recent traffic to judge
            baseline = mean.mean()
            current = mean.mean(self.recent)
            if baseline > 0 and current > self.factor * baseline:
                regressed[mds] = {"baseline": baseline,
                                  "recent": current}
        if not regressed:
            return None
        return self.result(
            HEALTH_WARN,
            f"mds op latency regressed >{self.factor:.0f}x on "
            f"{', '.join(sorted(regressed))}",
            mds=regressed, factor=self.factor)


class CapRevokeStuckCheck(HealthCheck):
    """Capability revocations outstanding for longer than the window.

    A cooperative revoke that never completes means a client is dead or
    misbehaving and the Shared Resource interface is blocked on it.
    """

    name = "CAP_REVOKE_STUCK"

    def __init__(self, stuck_for: float = 6.0, min_scrapes: int = 3):
        self.stuck_for = stuck_for
        self.min_scrapes = min_scrapes

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        stuck = {}
        for mds in sample.named("mds"):
            series = sample.series.get(mds)
            if series is None:
                continue
            revoking = series.maybe("gauge:caps.revoking")
            if revoking is None or len(revoking) < self.min_scrapes:
                continue
            floor = revoking.min_over(self.stuck_for)
            if floor > 0:
                stuck[mds] = floor
        if not stuck:
            return None
        return self.result(
            HEALTH_WARN,
            f"cap revokes stuck >{self.stuck_for:.0f}s on "
            f"{', '.join(sorted(stuck))}",
            mds=stuck, stuck_for=self.stuck_for)


class SequencerChurnCheck(HealthCheck):
    """ZLog epoch churn: sustained seal traffic on the OSDs.

    Seals are rare in steady state (log creation, sequencer failover).
    A sustained seal rate means sequencer ownership is flapping and
    every client append is paying the recovery path.
    """

    name = "ZLOG_EPOCH_CHURN"

    def __init__(self, max_rate: float = 1.0, window: float = 10.0):
        self.max_rate = max_rate
        self.window = window

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        total = 0.0
        per_osd = {}
        for osd in sample.named("osd"):
            series = sample.series.get(osd)
            if series is None:
                continue
            seals = series.maybe("counter:objclass.zlog.seal")
            if seals is None:
                continue
            rate = seals.rate(self.window)
            if rate > 0:
                per_osd[osd] = rate
            total += rate
        if total <= self.max_rate:
            return None
        return self.result(
            HEALTH_WARN,
            f"zlog epoch churn: {total:.1f} seals/s cluster-wide "
            f"(threshold {self.max_rate:.1f})",
            seal_rate=total, per_osd=per_osd)


class SubtreeImbalanceCheck(HealthCheck):
    """Metadata load spread across ranks beyond the tolerated ratio.

    The condition Mantle exists to fix; if it persists, either no
    balancer is installed or the policy is not moving load.
    """

    name = "MDS_IMBALANCE"

    def __init__(self, ratio: float = 4.0, min_load: float = 50.0):
        self.ratio = ratio
        self.min_load = min_load

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        loads = {}
        for mds in sample.named("mds"):
            dump = sample.dumps.get(mds)
            if dump is None:
                continue
            load = dump.get("gauges", {}).get("mds.load")
            if isinstance(load, (int, float)):
                loads[mds] = float(load)
        if len(loads) < 2:
            return None
        top = max(loads.values())
        bottom = min(loads.values())
        if top < self.min_load or top <= self.ratio * max(bottom, 1e-9):
            return None
        return self.result(
            HEALTH_WARN,
            f"mds load imbalance {top:.0f} vs {bottom:.0f} exceeds "
            f"{self.ratio:.0f}x",
            loads=loads, ratio=self.ratio)


class ChangelogConsumerLagCheck(HealthCheck):
    """A changelog consumer has fallen too far behind the stream.

    The writer publishes one ``changelog.lag.<cursor>`` gauge per
    registered cursor (records behind, summed over shards).  A large
    lag means a consumer is slow, paused, or dead — and because trim
    cannot pass the slowest cursor, the backlog it pins only grows.
    """

    name = "CHANGELOG_CONSUMER_LAG"

    def __init__(self, max_lag: float = 200.0):
        self.max_lag = max_lag

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        lagging: Dict[str, float] = {}
        for daemon in sample.named("changelog"):
            gauges = sample.dumps.get(daemon, {}).get("gauges", {})
            for name, value in gauges.items():
                if not name.startswith("changelog.lag."):
                    continue
                if isinstance(value, (int, float)) \
                        and value > self.max_lag:
                    cursor = name[len("changelog.lag."):]
                    lagging[cursor] = float(value)
        if not lagging:
            return None
        return self.result(
            HEALTH_WARN,
            f"changelog consumer(s) lagging >{self.max_lag:.0f} "
            f"records: {', '.join(sorted(lagging))}",
            cursors=lagging, max_lag=self.max_lag)


class ChangelogTrimStalledCheck(HealthCheck):
    """Records accumulate but trim reclaims nothing.

    Fires when the writer's retained-record gauge stays above the
    threshold for a whole window during which appends happened but the
    trim counter did not move — the stream is growing without bound
    (e.g. a registered cursor stopped acking).
    """

    name = "CHANGELOG_TRIM_STALLED"

    def __init__(self, min_retained: float = 500.0,
                 window: float = 10.0, min_scrapes: int = 3):
        self.min_retained = min_retained
        self.window = window
        self.min_scrapes = min_scrapes

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        stalled: Dict[str, float] = {}
        for daemon in sample.named("changelog"):
            series = sample.series.get(daemon)
            if series is None:
                continue
            retained = series.maybe("gauge:changelog.retained")
            if retained is None or len(retained) < self.min_scrapes:
                continue
            floor = retained.min_over(self.window)
            if floor < self.min_retained:
                continue
            appended = series.maybe("counter:changelog.appended")
            trimmed = series.maybe("counter:changelog.trimmed")
            grew = appended.delta(self.window) if appended else 0.0
            reclaimed = trimmed.delta(self.window) if trimmed else 0.0
            if grew > 0 and reclaimed <= 0:
                stalled[daemon] = floor
        if not stalled:
            return None
        return self.result(
            HEALTH_WARN,
            f"changelog trim stalled: >{self.min_retained:.0f} records "
            f"retained with no reclaim for {self.window:.0f}s on "
            f"{', '.join(sorted(stalled))}",
            writers=stalled, window=self.window)


class CacheTierFullCheck(HealthCheck):
    """A pool's cache tier is pinned over its capacity by dirty data.

    The write-back tier may exceed ``capacity`` between flusher ticks
    (dirty entries are never evicted), but a reading above the full
    ratio at scrape time means write-back is not keeping up with the
    ingest rate and every miss is landing in an already-full cache.
    """

    name = "CACHE_TIER_FULL"

    def __init__(self, full_ratio: float = 1.0):
        self.full_ratio = full_ratio

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        full: Dict[str, Dict[str, float]] = {}
        for osd in sample.named("osd"):
            gauges = sample.dumps.get(osd, {}).get("gauges", {})
            util = gauges.get("store.cache.utilization")
            if not isinstance(util, (int, float)):
                continue  # hosts no cache tier (gauge is None)
            if util > self.full_ratio:
                dirty = gauges.get("store.cache.dirty")
                full[osd] = {
                    "utilization": float(util),
                    "dirty": float(dirty)
                    if isinstance(dirty, (int, float)) else 0.0,
                }
        if not full:
            return None
        return self.result(
            HEALTH_WARN,
            f"cache tier over capacity on {', '.join(sorted(full))}: "
            f"dirty write-back is behind",
            osds=full, full_ratio=self.full_ratio)


class CompactionStalledCheck(HealthCheck):
    """A log-structured store carries garbage but never compacts.

    Fires when an OSD's worst eligible garbage ratio stays at or above
    the compaction threshold for a whole window during which its
    compaction counter did not move — the maintenance ticker is dead
    or wedged and read amplification only grows.
    """

    name = "COMPACTION_STALLED"

    def __init__(self, min_ratio: float = 0.5, window: float = 6.0,
                 min_scrapes: int = 3):
        self.min_ratio = min_ratio
        self.window = window
        self.min_scrapes = min_scrapes

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        stalled: Dict[str, float] = {}
        for osd in sample.named("osd"):
            series = sample.series.get(osd)
            if series is None:
                continue
            garbage = series.maybe("gauge:store.log.garbage_ratio")
            if garbage is None or len(garbage) < self.min_scrapes:
                continue
            floor = garbage.min_over(self.window)
            if floor < self.min_ratio:
                continue
            compactions = series.maybe(
                "counter:store.logstructured.compaction")
            reclaimed = compactions.delta(self.window) \
                if compactions else 0.0
            if reclaimed <= 0:
                stalled[osd] = floor
        if not stalled:
            return None
        return self.result(
            HEALTH_WARN,
            f"log compaction stalled on {', '.join(sorted(stalled))}: "
            f"garbage ratio >={self.min_ratio:.2f} for "
            f"{self.window:.0f}s with no compactions",
            osds=stalled, window=self.window)


class ChaosNemesisCheck(HealthCheck):
    """A nemesis schedule is armed against this cluster.

    Chaos runs are deliberate, but an operator looking at a sick
    cluster should see at a glance that faults are being *injected*
    rather than organic — the same reason Ceph surfaces ``noout`` and
    friends as health warnings.  Reads the engine status the sampler
    captured out-of-band; clusters without an engine never fire it.
    """

    name = "CHAOS_NEMESIS_ACTIVE"

    def evaluate(self, sample: ClusterSample
                 ) -> Optional[HealthCheckResult]:
        chaos = sample.chaos
        if not chaos or not chaos.get("armed"):
            return None
        return self.result(
            HEALTH_WARN,
            f"nemesis schedule {chaos.get('schedule')!r} is armed: "
            f"{chaos.get('ops', 0)} ops, "
            f"{chaos.get('injector_faults', 0)} injector faults, "
            f"{chaos.get('store_faults', 0)} store faults so far",
            **chaos)


def default_checks() -> List[HealthCheck]:
    """The standard check set the mgr evaluates every scrape."""
    return [
        OsdDownCheck(),
        DaemonUnreachableCheck(),
        PaxosStallCheck(),
        MdsLatencyRegressionCheck(),
        CapRevokeStuckCheck(),
        SequencerChurnCheck(),
        SubtreeImbalanceCheck(),
        ChangelogConsumerLagCheck(),
        ChangelogTrimStalledCheck(),
        CacheTierFullCheck(),
        CompactionStalledCheck(),
        ChaosNemesisCheck(),
    ]


def evaluate_health(checks: List[HealthCheck],
                    sample: ClusterSample) -> HealthReport:
    """Run every check against the sample; silent checks mean healthy."""
    results = []
    for check in checks:
        outcome = check.evaluate(sample)
        if outcome is not None:
            results.append(outcome)
    return HealthReport(time=sample.time, results=results)


def sample_cluster(cluster: Any,
                   series: Optional[Dict[str, DaemonSeries]] = None
                   ) -> ClusterSample:
    """Assemble a sample out-of-band from a booted cluster object.

    Uses the admin-socket path (no messages, no simulated time), so
    benchmarks can grab an end-of-run health snapshot without changing
    the run they just measured.  ``series`` carries history across
    repeated calls if the caller wants trend checks to participate.
    """
    sample = ClusterSample(time=cluster.sim.now,
                           series=series if series is not None else {})
    changelog = getattr(cluster, "changelog_daemons", None)
    extra = changelog() if callable(changelog) else []
    for role, daemons in (("mon", cluster.mons), ("osd", cluster.osds),
                          ("mds", cluster.mdss),
                          ("changelog", extra)):
        for d in daemons:
            sample.roles[d.name] = role
            dump = d.admin_command("telemetry.dump")
            sample.dumps[d.name] = dump
            sample.series_of(d.name).observe_dump(sample.time, dump)
    best_osd, best_mds = None, None
    for mon in cluster.mons:
        osdmap = mon.store.osdmap
        mdsmap = mon.store.mdsmap
        if best_osd is None or osdmap.epoch > best_osd.epoch:
            best_osd = osdmap
        if best_mds is None or mdsmap.epoch > best_mds.epoch:
            best_mds = mdsmap
    sample.osdmap = best_osd
    sample.mdsmap = best_mds
    engine = cluster.sim.chaos
    if engine is not None:
        sample.chaos = engine.status()
    sample.netstats = cluster.net.stats()
    return sample
