"""Integration tests for the mgr service on a booted cluster.

Covers the observability acceptance criteria: health flips on an OSD
kill and recovers, mid-scrape crashes degrade to a health detail, the
Prometheus export round-trips, audit records explain migrations, and
the structured-error admin path.  The determinism contract — a seeded
run with the mgr produces the same daemon schedules as one without
while health is steady — is pinned in ``test_observer_transparency.py``.
"""

import pytest

from repro.chaos import NemesisEngine, NemesisSchedule
from repro.core import LoadBalancingInterface, MalacologyCluster
from repro.mantle import attach_balancers, builtin
from repro.mgr.prometheus import parse_prometheus_text
from repro.sim.failure import FailureInjector
from repro.workloads import SequencerWorkload


@pytest.fixture(scope="module")
def cluster():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=42,
                                mgr=True)
    c.run(6.0)  # a few scrape periods
    return c


# ----------------------------------------------------------------------
# Basic service surface
# ----------------------------------------------------------------------
def test_mgr_boots_and_scrapes(cluster):
    mgr = cluster.mgr
    assert mgr is not None and mgr.booted
    assert mgr.scrape_count >= 2
    report = cluster.health()
    assert report["status"] == "HEALTH_OK"
    assert report["checks"] == {}


def test_status_summarizes_cluster(cluster):
    status = cluster.status()
    assert status["health"]["status"] == "HEALTH_OK"
    assert status["targets"] == 7  # 3 mons + 3 osds + 1 mds
    assert status["unreachable"] == []
    assert status["osdmap"]["up"] == 3
    assert status["mdsmap"]["ranks"] == 1


def test_metrics_export_is_valid_prometheus(cluster):
    text = cluster.daemon_command("mgr0", "metrics.export")
    samples = parse_prometheus_text(text)  # strict: raises if invalid
    daemons = {s.labels["daemon"] for s in samples}
    assert {"mon0", "mon1", "mon2", "osd0", "osd1", "osd2",
            "mds0"} <= daemons
    commits = [s for s in samples
               if s.metric == "repro_counter_total"
               and s.labels["name"] == "paxos.commit"]
    assert commits and all(s.value > 0 for s in commits)
    pending = [s for s in samples
               if s.metric == "repro_gauge"
               and s.labels["name"] == "paxos.pending_txns"]
    assert len(pending) == 3  # the new monitor health gauge, per mon


def test_daemon_command_structured_errors(cluster):
    missing = cluster.daemon_command("osd99", "telemetry.dump")
    assert missing["error"]["code"] == "ENOENT"
    assert "osd99" in missing["error"]["message"]
    unknown = cluster.daemon_command("osd0", "no.such.command")
    assert "error" in unknown
    assert "no.such.command" in unknown["error"]["message"]
    # The happy path is unwrapped.
    dump = cluster.daemon_command("osd0", "telemetry.dump")
    assert "counters" in dump


# ----------------------------------------------------------------------
# OSD kill -> HEALTH_WARN naming the OSD -> recovery  (fresh cluster:
# these mutate daemon state)
# ----------------------------------------------------------------------
def test_osd_kill_flips_health_and_recovery_restores_it():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=43,
                                mgr=True)
    c.run(6.0)
    assert c.health()["status"] == "HEALTH_OK"

    injector = FailureInjector(c.sim, c.net)
    c.sim.schedule(1.0, injector.crash, c.osds[1])
    c.run(20.0)  # peers report it, osdmap updates, mgr scrapes

    report = c.health()
    assert report["status"] == "HEALTH_WARN"
    osd_down = report["checks"].get("OSD_DOWN")
    assert osd_down is not None, report
    assert "osd1" in osd_down["detail"]["osds"]
    assert "osd1" in osd_down["summary"]
    # The scrape itself also could not reach the corpse.
    unreachable = report["checks"].get("DAEMON_UNREACHABLE")
    assert unreachable is not None
    assert "osd1" in unreachable["detail"]["daemons"]

    # The transition was logged centrally, naming the OSD.
    leader = c.leader_monitor()
    mgr_lines = [e for e in leader.store.cluster_log if e.who == "mgr0"]
    assert any("OSD_DOWN" in e.message and "osd1" in e.message
               for e in mgr_lines)

    c.sim.schedule(1.0, injector.restart, c.osds[1])
    c.run(25.0)  # boot, mon marks it up, checks clear
    report = c.health()
    assert report["status"] == "HEALTH_OK", report
    # Clears are logged too.
    leader = c.leader_monitor()
    mgr_lines = [e for e in leader.store.cluster_log if e.who == "mgr0"]
    assert any("cleared" in e.message for e in mgr_lines)


def test_mid_scrape_crash_does_not_kill_the_scrape_loop():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=44,
                                mgr=True)
    c.run(5.0)
    before = c.mgr.scrape_count
    c.osds[2].crash()
    c.run(10.0)
    # The loop kept ticking through the failures...
    assert c.mgr.scrape_count >= before + 3
    # ... and flagged the unreachable daemon instead of raising.
    assert "osd2" in c.mgr.last_sample.failed
    assert c.mgr.perf.get("mgr.scrape.failed") > 0
    report = c.health()
    assert report["checks"]["DAEMON_UNREACHABLE"]["status"] \
        == "HEALTH_WARN"


def test_simulator_planes_are_scraped_like_daemons():
    """The network and chaos planes land in the scrape with series."""
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=45,
                                mgr=True)
    schedule = NemesisSchedule(name="one-crash", duration=10.0)
    NemesisEngine(c).arm(schedule.add("crash", 1.0, target="osd2"))
    c.run(10.0)
    sample = c.mgr.last_sample
    assert sample.roles["network"] == sample.roles["chaos"] == "plane"
    assert "kernel" not in sample.dumps  # no profiler installed
    sent = c.mgr.series["network"].maybe("counter:net.messages_sent")
    assert len(sent) >= 3 and sent.delta() > 0
    chaos = c.health()["checks"]["CHAOS_NEMESIS_ACTIVE"]
    assert chaos["detail"] == {"armed": True, "schedule": "one-crash",
                               "ops": 1, "faults": 1}
    assert chaos["summary"] == ("nemesis schedule 'one-crash' is armed: "
                                "1 ops, 1 faults so far")
    exported = {(s.labels["daemon"], s.labels["name"]): s.value
                for s in parse_prometheus_text(c.mgr.metrics_export())}
    assert exported[("chaos", "chaos.faults")] == 1
    assert exported[("network", "net.messages_sent")] \
        == sample.dumps["network"]["counters"]["net.messages_sent"]


def test_an_armed_empty_schedule_is_named():
    """A schedule with no ops is armed all the same, and named."""
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=45,
                                mgr=True)
    NemesisEngine(c).arm(NemesisSchedule(name="empty"))
    c.run(5.0)
    chaos = c.health()["checks"]["CHAOS_NEMESIS_ACTIVE"]
    assert chaos["detail"] == {"armed": True, "schedule": "empty",
                               "ops": 0, "faults": 0}
    assert chaos["summary"] == ("nemesis schedule 'empty' is armed: "
                                "0 ops, 0 faults so far")


# ----------------------------------------------------------------------
# Mantle audit trail
# ----------------------------------------------------------------------
def test_audit_trail_explains_every_migration():
    c = MalacologyCluster.build(osds=6, mdss=2, mons=3, seed=45,
                                mgr=True)
    attach_balancers(c)
    c.do(LoadBalancingInterface(c.admin).publish_policy(
        "audit-under-test", builtin.MANTLE_SEQUENCER))
    workload = SequencerWorkload(c, num_sequencers=2, clients_per_seq=4)
    workload.setup(lease_mode="round-trip")
    workload.start()
    c.run(80.0)
    workload.stop()
    c.run(5.0)  # final scrape collects the last records

    migrations = c.daemon_command("mgr0", "audit.dump",
                                  {"migrations_only": True})
    assert migrations, "balanced run should have migrated at least once"
    for rec in migrations:
        # Every migration carries the full explanation: who decided,
        # under which policy, seeing what loads, moving what, at what
        # measured cost.
        assert rec["policy"] == "audit-under-test"
        assert rec["status"] == "decided"
        assert rec["decision"]["when"] is True
        assert rec["load"], "load vector must be recorded"
        assert all("load" in row for row in rec["load"])
        assert rec["moves"]
        assert rec["counter_deltas"].get("migrate.export", 0) > 0
        assert rec["mds"].startswith("mds")

    # Each move in the trail corresponds to a real exported subtree.
    full = c.daemon_command("mgr0", "audit.dump")
    assert len(full) >= len(migrations)
    decided = [r for r in full if r["status"] == "decided"]
    assert len(decided) > len(migrations)  # most ticks decide "stay"
