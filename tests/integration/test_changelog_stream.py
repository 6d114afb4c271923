"""Integration tests: the distributed changelog & audit subsystem.

Covers the acceptance criteria end to end: records flow from MDS/OSD
producers through the writer into epoch-fenced shard objects and out
to watch/notify-woken consumers; OSD crash/recovery leaves no gaps or
duplicates; a second writer fences the first; a crashed consumer
resumes from its durable cursor; a lagging consumer trips
``CHANGELOG_CONSUMER_LAG`` in mgr health and Prometheus.  The
determinism contract — a changelog-enabled run leaves the
non-changelog daemons' schedule byte-identical — is pinned in
``test_observer_transparency.py``.
"""

import pytest

from repro.core import MalacologyCluster
from repro.changelog import CHANGELOG_POOL, ChangelogWriter
from repro.mgr.health import (
    HEALTH_WARN,
    ClusterSample,
    changelog_trim_stalled,
)
from repro.mgr.prometheus import parse_prometheus_text
from repro.rados.placement import locate


def mkdir_and_create(client, dirname, n):
    def work():
        yield from client.fs_mkdir(dirname)
        for i in range(n):
            yield from client.fs_create(f"{dirname}/f{i}")
    return work()


def read_shard(cluster, writer, shard):
    """Drain one shard object through the paginated list method."""
    entries, from_seq = [], -1
    while True:
        out = cluster.do(cluster.admin.rados_exec(
            CHANGELOG_POOL, writer.layout.object_of(shard),
            "changelog", "list", {"from_seq": from_seq, "max": 256}))
        entries.extend(out["entries"])
        if not out["truncated"]:
            return entries
        from_seq = out["cursor"]


def all_records(cluster, writer):
    return {shard: read_shard(cluster, writer, shard)
            for shard in range(writer.layout.width)}


# ----------------------------------------------------------------------
# End-to-end stream -> audit -> mgr
# ----------------------------------------------------------------------
def test_stream_end_to_end_with_audit_and_mgr():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=80,
                                changelog=True, mgr=True)
    c.run(3.0)
    assert c.changelog_writer.booted
    aud = c.audit_pipeline
    assert aud is not None and aud.booted

    client = c.new_client("alice-app")
    def work():
        yield from client.fs_mkdir("/alice")
        for i in range(8):
            yield from client.fs_create(f"/alice/f{i}")
        yield from client.fs_rename("/alice/f0", "/alice/g0")
        yield from client.fs_unlink("/alice/f1")
        yield from client.fs_write("/alice/f2", 0, b"payload")
    c.sim.run_until_complete(client.do(work()))
    c.run(8.0)  # flush, notify, consume, trim, scrape

    # Every mutation became a typed record and reached the consumer.
    kinds = {}
    for rec in aud.received:
        kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
    assert kinds["mkdir"] == 1 and kinds["create"] == 8
    assert kinds["rename"] == 1 and kinds["unlink"] == 1
    assert kinds["setattr"] == 1  # fs_write updates the size
    assert kinds["object_write"] == 1  # the data-pool write

    # The audit pipeline materialized per-tenant / per-actor views.
    summary = c.daemon_command(aud.name, "audit.summary")
    assert summary["by_tenant"]["alice"]["create"] == 8
    assert summary["by_actor"]["alice-app"]["rename"] == 1

    # Acked ranges were reclaimed: nothing retained, zero lag.
    status = c.daemon_command("mgr0", "changelog.status")
    assert status["appended"] == len(aud.received) > 0
    assert status["consumed"] == status["appended"]
    assert status["retained"] == 0 and status["buffered"] == 0
    assert status["lag"] == {"audit": 0.0}
    assert c.health()["status"] == "HEALTH_OK"

    # The rename really happened in the namespace.
    assert c.sim.run_until_complete(
        client.do(client.fs_stat("/alice/g0")))["kind"] == "file"


# ----------------------------------------------------------------------
# OSD crash/recovery: no gaps, no duplicates (epoch fencing + dedup)
# ----------------------------------------------------------------------
def test_records_survive_osd_crash_without_gaps_or_dups():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=81)
    w = c.enable_changelog(audit=False)  # no cursors -> nothing trims
    c.run(3.0)
    assert w.booted

    client = c.new_client("load")
    c.sim.run_until_complete(client.do(mkdir_and_create(client, "/d", 20)))
    c.run(2.0)

    # Kill the OSD holding shard 0 (size-1 pool: appends to it must
    # stall and replay, not vanish).
    osdmap = c.mons[0].store.osdmap
    _, acting = locate(osdmap, CHANGELOG_POOL, w.layout.object_of(0))
    victim = next(o for o in c.osds if o.name == acting[0])
    victim.crash()

    def more():
        for i in range(20, 40):
            yield from client.fs_create(f"/d/f{i}")
    proc = client.do(more())
    c.run(5.0)
    victim.restart()
    c.sim.run_until_complete(proc)
    c.run(25.0)  # writer retries drain the buffered batches

    status = w.status()
    assert status["buffered"] == 0, status
    shards = all_records(c, w)
    # Per-shard: the class-assigned seqs are contiguous from 0.
    total = 0
    for shard, entries in sorted(shards.items()):
        seqs = [e["seq"] for e in entries]
        assert seqs == list(range(len(seqs))), f"shard {shard} gap"
        total += len(entries)
    # Per-producer: exactly pseq 1..N once each — no loss on the crash,
    # no duplicates from the writer's replays.
    by_producer = {}
    for entries in shards.values():
        for e in entries:
            by_producer.setdefault(e["producer"], []).append(e["pseq"])
    assert set(by_producer) == {"mds0#1"}
    pseqs = sorted(by_producer["mds0#1"])
    assert pseqs == list(range(1, 42))  # mkdir + 40 creates, each once
    assert total == 41


def test_second_writer_fences_the_first():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=82,
                                changelog=True)
    c.run(3.0)
    w1 = c.changelog_writer
    assert w1.booted and w1.epoch == 1

    client = c.new_client("load")
    c.sim.run_until_complete(client.do(mkdir_and_create(client, "/a", 5)))
    c.run(2.0)

    # A successor writer seals every shard at a higher epoch.
    w2 = ChangelogWriter(c.sim, c.net, "chlog1", c.mon_names,
                         layout=w1.layout)
    c.run(2.0)
    assert w2.booted and w2.epoch == 2

    # The fenced writer's next flush is rejected and it stops cleanly.
    c.sim.run_until_complete(client.do(mkdir_and_create(client, "/b", 5)))
    c.run(3.0)
    assert w1.fenced
    assert w1.perf.get("changelog.fenced") > 0
    # Events arriving at a fenced writer are dropped and counted, never
    # half-appended under a stale epoch.
    c.sim.run_until_complete(client.do(mkdir_and_create(client, "/c", 3)))
    c.run(2.0)
    assert w1.perf.get("changelog.dropped.fenced") > 0
    for shard in range(w1.layout.width):
        state = c.do(c.admin.rados_exec(
            CHANGELOG_POOL, w1.layout.object_of(shard),
            "changelog", "get_state", {}))
        assert state["epoch"] == 2


# ----------------------------------------------------------------------
# Consumer crash mid-tail: durable cursor resume (at-least-once)
# ----------------------------------------------------------------------
def test_consumer_crash_resumes_from_durable_cursor():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=83,
                                changelog=True)
    c.run(3.0)
    aud = c.audit_pipeline
    client = c.new_client("load")

    c.sim.run_until_complete(client.do(mkdir_and_create(client, "/d", 15)))
    c.run(3.0)
    acked_before = {(r["producer"], r["pseq"]) for r in aud.received}
    assert len(acked_before) == 16  # mkdir + 15 creates, all consumed

    aud.crash()
    def more():
        for i in range(15, 30):
            yield from client.fs_create(f"/d/f{i}")
    c.sim.run_until_complete(client.do(more()))
    c.run(2.0)
    aud.restart()
    c.run(8.0)

    after = {(r["producer"], r["pseq"]) for r in aud.received}
    expected = {("mds0#1", i) for i in range(1, 32)}
    # At-least-once: everything not acked before the crash is
    # redelivered from the durable cursor; nothing is lost.
    assert acked_before | after == expected
    assert len(after) >= len(expected) - len(acked_before)
    # And the stream drains again: lag returns to zero after trim.
    c.run(6.0)
    assert c.changelog_writer._cursor_lag.get("audit", 0) == 0


# ----------------------------------------------------------------------
# Lag health: paused consumer -> CHANGELOG_CONSUMER_LAG -> recovery
# ----------------------------------------------------------------------
def test_lagging_consumer_trips_health_and_prometheus():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=84,
                                changelog=True, mgr=True)
    c.run(3.0)
    aud = c.audit_pipeline
    aud.pause()  # stops tailing and acking; lag accumulates

    client = c.new_client("load")
    c.sim.run_until_complete(client.do(
        mkdir_and_create(client, "/storm", 260)))
    c.run(12.0)  # trim ticks compute lag; mgr scrapes it

    report = c.health()
    assert report["status"] == "HEALTH_WARN"
    check = report["checks"].get("CHANGELOG_CONSUMER_LAG")
    assert check is not None, report
    assert check["detail"]["cursors"]["audit"] > 200
    assert "audit" in check["summary"]

    # The per-cursor lag gauge is in the Prometheus export.
    text = c.daemon_command("mgr0", "metrics.export")
    samples = parse_prometheus_text(text)
    lag = [s for s in samples
           if s.metric == "repro_gauge"
           and s.labels["name"] == "changelog.lag.audit"]
    assert lag and lag[0].value > 200
    assert lag[0].labels["daemon"] == "chlog0"
    status = c.daemon_command("mgr0", "changelog.status")
    assert status["lag"]["audit"] > 200
    assert "CHANGELOG_CONSUMER_LAG" in status["health"]

    # Resume: the consumer catches up, trim reclaims, health clears.
    aud.resume()
    c.run(15.0)
    report = c.health()
    assert "CHANGELOG_CONSUMER_LAG" not in report["checks"], report
    assert report["status"] == "HEALTH_OK"
    assert c.daemon_command("mgr0", "changelog.status")["retained"] == 0


def test_trim_stalled_check_fires_on_synthetic_sample():
    """Unit-style: retained backlog + appends but no trims -> WARN."""
    sample = ClusterSample(time=30.0, roles={"chlog0": "changelog"})
    series = sample.series_of("chlog0")
    for t, appended in ((10.0, 100.0), (15.0, 400.0), (20.0, 700.0),
                        (25.0, 900.0), (30.0, 1000.0)):
        series.observe_dump(t, {
            "counters": {"changelog.appended": appended,
                         "changelog.trimmed": 120.0},
            "gauges": {"changelog.retained": appended - 120.0},
        })
    result = changelog_trim_stalled(sample)
    assert result is not None and result.status == HEALTH_WARN
    assert result.detail["writers"] == {"chlog0": pytest.approx(580.0)}
    # A healthy stream (trim advancing) stays silent.
    healthy = ClusterSample(time=30.0, roles={"chlog0": "changelog"})
    hs = healthy.series_of("chlog0")
    for t, (appended, trimmed) in ((10.0, (100.0, 0.0)),
                                   (20.0, (700.0, 600.0)),
                                   (30.0, (1000.0, 950.0))):
        hs.observe_dump(t, {
            "counters": {"changelog.appended": appended,
                         "changelog.trimmed": trimmed},
            "gauges": {"changelog.retained": 600.0},
        })
    assert changelog_trim_stalled(healthy) is None
