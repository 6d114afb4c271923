"""Cluster health checks (Ceph mgr's ``health`` module).

A health check is a plain function of one :class:`ClusterSample` — the
most recent scrape of every daemon's ``telemetry.dump`` plus the
cluster maps and the per-daemon time series.  It either stays silent
(returns ``None``: healthy) or returns a :class:`HealthCheckResult`
with a severity and structured detail.  :data:`CHECKS` lists them all
in report order; their thresholds are the module constants below.  The
overall cluster status is the worst individual result:
``HEALTH_OK`` < ``HEALTH_WARN`` < ``HEALTH_ERR``, exactly the ladder
``ceph -s`` reports.

Checks are pure functions of the sample: no simulated time, no RNG, no
messages.  That is what lets the same checks run both inside the mgr
daemon (fed by in-band scrapes) and out-of-band at the end of a
benchmark via :func:`sample_cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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

    def observe(self, daemon: str, role: str,
                dump: Dict[str, Any]) -> None:
        """Record one daemon's scrape: its role, its dump, a series point."""
        self.roles[daemon] = role
        self.dumps[daemon] = dump
        self.series_of(daemon).observe_dump(self.time, dump)

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


#: A health check: silent (``None``) when healthy.
Check = Callable[[ClusterSample], Optional[HealthCheckResult]]


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


#: Trend checks judge nothing until a daemon has this many scrapes.
MIN_SCRAPES = 3
#: ``PAXOS_STALL``: pending transactions with no commit for this long.
PAXOS_STALL_WINDOW = 10.0
#: ``MDS_LATENCY_REGRESSION``: recent mean over baseline mean, the
#: recent window, and the fewest recent requests worth judging.
MDS_LATENCY_FACTOR = 3.0
MDS_LATENCY_RECENT = 10.0
MDS_LATENCY_MIN_OPS = 20.0
#: ``CAP_REVOKE_STUCK``: a revoke outstanding for this long.
CAP_REVOKE_STUCK_FOR = 6.0
#: ``ZLOG_EPOCH_CHURN``: cluster-wide seals per second over the window.
ZLOG_SEAL_MAX_RATE = 1.0
ZLOG_SEAL_WINDOW = 10.0
#: ``MDS_IMBALANCE``: busiest over idlest rank, once the busiest
#: carries at least the minimum load.
MDS_IMBALANCE_RATIO = 4.0
MDS_IMBALANCE_MIN_LOAD = 50.0
#: ``CHANGELOG_CONSUMER_LAG``: records a cursor may fall behind.
CHANGELOG_MAX_LAG = 200.0
#: ``CHANGELOG_TRIM_STALLED``: retained records and the window in
#: which trim must reclaim something.
CHANGELOG_MIN_RETAINED = 500.0
CHANGELOG_TRIM_WINDOW = 10.0
#: ``CACHE_TIER_FULL``: cache utilization at scrape time.
CACHE_FULL_RATIO = 1.0
#: ``COMPACTION_STALLED``: garbage ratio held for the whole window.
COMPACTION_MIN_RATIO = 0.5
COMPACTION_WINDOW = 6.0


def osd_down(sample: ClusterSample) -> Optional[HealthCheckResult]:
    """OSDs marked down in the OSD map (peer pings reported them)."""
    m = sample.osdmap
    if m is None:
        return None
    down = sorted(name for name, state in m.osds.items()
                  if state != "up")
    if not down:
        return None
    return HealthCheckResult(
        "OSD_DOWN", HEALTH_WARN,
        f"{len(down)} osd(s) down: {', '.join(down)}",
        {"osds": down, "epoch": m.epoch})


def daemon_unreachable(sample: ClusterSample
                       ) -> Optional[HealthCheckResult]:
    """Daemons the last scrape could not reach (crashed mid-scrape)."""
    if not sample.failed:
        return None
    names = sorted(sample.failed)
    return HealthCheckResult(
        "DAEMON_UNREACHABLE", HEALTH_WARN,
        f"scrape failed for {len(names)} daemon(s): {', '.join(names)}",
        {"daemons": {n: sample.failed[n] for n in names}})


def paxos_stall(sample: ClusterSample) -> Optional[HealthCheckResult]:
    """A monitor sits on pending transactions but commits nothing.

    Fires when some monitor has held pending client transactions for a
    full observation window while its ``paxos.commit`` counter did not
    advance — consensus is wedged, which is an error, not a warning.
    """
    window = PAXOS_STALL_WINDOW
    stalled = {}
    for mon in sample.named("mon"):
        series = sample.series.get(mon)
        if series is None:
            continue
        pending = series.maybe("gauge:paxos.pending_txns")
        if pending is None or len(pending) < MIN_SCRAPES:
            continue
        if pending.min_over(window) <= 0:
            continue  # drained at some point in the window
        commits = series.maybe("counter:paxos.commit")
        committed = commits.delta(window) if commits else 0.0
        if committed <= 0:
            latest = pending.latest()
            stalled[mon] = latest[1] if latest else 0.0
    if not stalled:
        return None
    return HealthCheckResult(
        "PAXOS_STALL", HEALTH_ERR,
        f"paxos stalled on {', '.join(sorted(stalled))}: pending "
        f"transactions but no commits for {window:.0f}s",
        {"monitors": stalled, "window": window})


def mds_latency_regression(sample: ClusterSample
                           ) -> Optional[HealthCheckResult]:
    """Recent MDS request latency regressed against its own history.

    Compares the mean latency of the requests served in the recent
    window (Δsum / Δcount of the tracker) with that of the requests
    served before it.  The tracker's own running mean would not do:
    it averages the whole history, so a recent slowdown is diluted.
    """
    recent = MDS_LATENCY_RECENT
    regressed = {}
    for mds in sample.named("mds"):
        series = sample.series.get(mds)
        if series is None:
            continue
        total = series.maybe("latency:rpc.mds_req:sum")
        count = series.maybe("latency:rpc.mds_req:count")
        if total is None or count is None or len(count) < 4:
            continue
        recent_ops = count.delta(recent)
        if recent_ops < MDS_LATENCY_MIN_OPS:
            continue  # too little recent traffic to judge
        past_ops = count.delta() - recent_ops
        if past_ops <= 0:
            continue  # no history to judge against
        current = total.delta(recent) / recent_ops
        baseline = (total.delta() - total.delta(recent)) / past_ops
        if baseline > 0 and current > MDS_LATENCY_FACTOR * baseline:
            regressed[mds] = {"baseline": baseline, "recent": current}
    if not regressed:
        return None
    return HealthCheckResult(
        "MDS_LATENCY_REGRESSION", HEALTH_WARN,
        f"mds op latency regressed >{MDS_LATENCY_FACTOR:.0f}x on "
        f"{', '.join(sorted(regressed))}",
        {"mds": regressed, "factor": MDS_LATENCY_FACTOR})


def cap_revoke_stuck(sample: ClusterSample
                     ) -> Optional[HealthCheckResult]:
    """Capability revocations outstanding for longer than the window.

    A cooperative revoke that never completes means a client is dead or
    misbehaving and the Shared Resource interface is blocked on it.
    """
    stuck = {}
    for mds in sample.named("mds"):
        series = sample.series.get(mds)
        if series is None:
            continue
        revoking = series.maybe("gauge:caps.revoking")
        if revoking is None or len(revoking) < MIN_SCRAPES:
            continue
        floor = revoking.min_over(CAP_REVOKE_STUCK_FOR)
        if floor > 0:
            stuck[mds] = floor
    if not stuck:
        return None
    return HealthCheckResult(
        "CAP_REVOKE_STUCK", HEALTH_WARN,
        f"cap revokes stuck >{CAP_REVOKE_STUCK_FOR:.0f}s on "
        f"{', '.join(sorted(stuck))}",
        {"mds": stuck, "stuck_for": CAP_REVOKE_STUCK_FOR})


def zlog_epoch_churn(sample: ClusterSample
                     ) -> Optional[HealthCheckResult]:
    """ZLog epoch churn: sustained seal traffic on the OSDs.

    Seals are rare in steady state (log creation, sequencer failover).
    A sustained seal rate means sequencer ownership is flapping and
    every client append is paying the recovery path.
    """
    total = 0.0
    per_osd = {}
    for osd in sample.named("osd"):
        series = sample.series.get(osd)
        if series is None:
            continue
        seals = series.maybe("counter:objclass.zlog.seal")
        if seals is None:
            continue
        rate = seals.rate(ZLOG_SEAL_WINDOW)
        if rate > 0:
            per_osd[osd] = rate
        total += rate
    if total <= ZLOG_SEAL_MAX_RATE:
        return None
    return HealthCheckResult(
        "ZLOG_EPOCH_CHURN", HEALTH_WARN,
        f"zlog epoch churn: {total:.1f} seals/s cluster-wide "
        f"(threshold {ZLOG_SEAL_MAX_RATE:.1f})",
        {"seal_rate": total, "per_osd": per_osd})


def mds_imbalance(sample: ClusterSample) -> Optional[HealthCheckResult]:
    """Metadata load spread across ranks beyond the tolerated ratio.

    The condition Mantle exists to fix; if it persists, either no
    balancer is installed or the policy is not moving load.
    """
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
    if top < MDS_IMBALANCE_MIN_LOAD \
            or top <= MDS_IMBALANCE_RATIO * max(bottom, 1e-9):
        return None
    return HealthCheckResult(
        "MDS_IMBALANCE", HEALTH_WARN,
        f"mds load imbalance {top:.0f} vs {bottom:.0f} exceeds "
        f"{MDS_IMBALANCE_RATIO:.0f}x",
        {"loads": loads, "ratio": MDS_IMBALANCE_RATIO})


def changelog_consumer_lag(sample: ClusterSample
                           ) -> Optional[HealthCheckResult]:
    """A changelog consumer has fallen too far behind the stream.

    The writer publishes one ``changelog.lag.<cursor>`` gauge per
    registered cursor (records behind, summed over shards).  A large
    lag means a consumer is slow, paused, or dead — and because trim
    cannot pass the slowest cursor, the backlog it pins only grows.
    """
    lagging: Dict[str, float] = {}
    for daemon in sample.named("changelog"):
        gauges = sample.dumps.get(daemon, {}).get("gauges", {})
        for name, value in gauges.items():
            if not name.startswith("changelog.lag."):
                continue
            if isinstance(value, (int, float)) \
                    and value > CHANGELOG_MAX_LAG:
                cursor = name[len("changelog.lag."):]
                lagging[cursor] = float(value)
    if not lagging:
        return None
    return HealthCheckResult(
        "CHANGELOG_CONSUMER_LAG", HEALTH_WARN,
        f"changelog consumer(s) lagging >{CHANGELOG_MAX_LAG:.0f} "
        f"records: {', '.join(sorted(lagging))}",
        {"cursors": lagging, "max_lag": CHANGELOG_MAX_LAG})


def changelog_trim_stalled(sample: ClusterSample
                           ) -> Optional[HealthCheckResult]:
    """Records accumulate but trim reclaims nothing.

    Fires when the writer's retained-record gauge stays above the
    threshold for a whole window during which appends happened but the
    trim counter did not move — the stream is growing without bound
    (e.g. a registered cursor stopped acking).
    """
    window = CHANGELOG_TRIM_WINDOW
    stalled: Dict[str, float] = {}
    for daemon in sample.named("changelog"):
        series = sample.series.get(daemon)
        if series is None:
            continue
        retained = series.maybe("gauge:changelog.retained")
        if retained is None or len(retained) < MIN_SCRAPES:
            continue
        floor = retained.min_over(window)
        if floor < CHANGELOG_MIN_RETAINED:
            continue
        appended = series.maybe("counter:changelog.appended")
        trimmed = series.maybe("counter:changelog.trimmed")
        grew = appended.delta(window) if appended else 0.0
        reclaimed = trimmed.delta(window) if trimmed else 0.0
        if grew > 0 and reclaimed <= 0:
            stalled[daemon] = floor
    if not stalled:
        return None
    return HealthCheckResult(
        "CHANGELOG_TRIM_STALLED", HEALTH_WARN,
        f"changelog trim stalled: >{CHANGELOG_MIN_RETAINED:.0f} records "
        f"retained with no reclaim for {window:.0f}s on "
        f"{', '.join(sorted(stalled))}",
        {"writers": stalled, "window": window})


def cache_tier_full(sample: ClusterSample
                    ) -> Optional[HealthCheckResult]:
    """A pool's cache tier is pinned over its capacity by dirty data.

    The write-back tier may exceed ``capacity`` between flusher ticks
    (dirty entries are never evicted), but a reading above the full
    ratio at scrape time means write-back is not keeping up with the
    ingest rate and every miss is landing in an already-full cache.
    """
    full: Dict[str, Dict[str, float]] = {}
    for osd in sample.named("osd"):
        gauges = sample.dumps.get(osd, {}).get("gauges", {})
        util = gauges.get("store.cache.utilization")
        if not isinstance(util, (int, float)):
            continue  # hosts no cache tier (gauge is None)
        if util > CACHE_FULL_RATIO:
            dirty = gauges.get("store.cache.dirty")
            full[osd] = {
                "utilization": float(util),
                "dirty": float(dirty)
                if isinstance(dirty, (int, float)) else 0.0,
            }
    if not full:
        return None
    return HealthCheckResult(
        "CACHE_TIER_FULL", HEALTH_WARN,
        f"cache tier over capacity on {', '.join(sorted(full))}: "
        f"dirty write-back is behind",
        {"osds": full, "full_ratio": CACHE_FULL_RATIO})


def compaction_stalled(sample: ClusterSample
                       ) -> Optional[HealthCheckResult]:
    """A log-structured store carries garbage but never compacts.

    Fires when an OSD's worst eligible garbage ratio stays at or above
    the compaction threshold for a whole window during which its
    compaction counter did not move — the maintenance ticker is dead
    or wedged and read amplification only grows.
    """
    window = COMPACTION_WINDOW
    stalled: Dict[str, float] = {}
    for osd in sample.named("osd"):
        series = sample.series.get(osd)
        if series is None:
            continue
        garbage = series.maybe("gauge:store.log.garbage_ratio")
        if garbage is None or len(garbage) < MIN_SCRAPES:
            continue
        floor = garbage.min_over(window)
        if floor < COMPACTION_MIN_RATIO:
            continue
        compactions = series.maybe("counter:store.logstructured.compaction")
        reclaimed = compactions.delta(window) if compactions else 0.0
        if reclaimed <= 0:
            stalled[osd] = floor
    if not stalled:
        return None
    return HealthCheckResult(
        "COMPACTION_STALLED", HEALTH_WARN,
        f"log compaction stalled on {', '.join(sorted(stalled))}: "
        f"garbage ratio >={COMPACTION_MIN_RATIO:.2f} for "
        f"{window:.0f}s with no compactions",
        {"osds": stalled, "window": window})


def chaos_nemesis_active(sample: ClusterSample
                         ) -> Optional[HealthCheckResult]:
    """A nemesis schedule is armed against this cluster.

    Chaos runs are deliberate, but an operator looking at a sick
    cluster should see at a glance that faults are being *injected*
    rather than organic — the same reason Ceph surfaces ``noout`` and
    friends as health warnings.  Reads the engine status the sampler
    captured out-of-band; clusters without an engine never fire it.
    """
    chaos = sample.chaos
    if not chaos or not chaos.get("armed"):
        return None
    return HealthCheckResult(
        "CHAOS_NEMESIS_ACTIVE", HEALTH_WARN,
        f"nemesis schedule {chaos.get('schedule')!r} is armed: "
        f"{chaos.get('ops', 0)} ops, "
        f"{chaos.get('injector_faults', 0)} injector faults, "
        f"{chaos.get('store_faults', 0)} store faults so far",
        dict(chaos))


#: The checks the mgr evaluates every scrape, in report order.
CHECKS: Tuple[Check, ...] = (
    osd_down,
    daemon_unreachable,
    paxos_stall,
    mds_latency_regression,
    cap_revoke_stuck,
    zlog_epoch_churn,
    mds_imbalance,
    changelog_consumer_lag,
    changelog_trim_stalled,
    cache_tier_full,
    compaction_stalled,
    chaos_nemesis_active,
)


def evaluate_health(checks: Iterable[Check],
                    sample: ClusterSample) -> HealthReport:
    """Run every check against the sample; silent checks mean healthy."""
    results = []
    for check in checks:
        outcome = check(sample)
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
            sample.observe(d.name, role, d.admin_command("telemetry.dump"))
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
    return sample
