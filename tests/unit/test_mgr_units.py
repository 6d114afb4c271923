"""Unit tests for the mgr building blocks.

Time-series rings, health checks over synthetic samples, the
Prometheus exporter/parser round trip, and the Mantle audit trail —
all pure data structures, no simulator needed.
"""

from types import SimpleNamespace

import pytest

from repro.mgr.audit import MantleAuditTrail, merge_trails
from repro.mgr.health import (
    CHECKS,
    HEALTH_ERR,
    HEALTH_OK,
    HEALTH_WARN,
    ClusterSample,
    HealthReport,
    cap_revoke_stuck,
    daemon_unreachable,
    evaluate_health,
    mds_imbalance,
    mds_latency_regression,
    osd_down,
    paxos_stall,
    worst_status,
    zlog_epoch_churn,
)
from repro.mgr.prometheus import parse_prometheus_text, prometheus_export
from repro.mgr.timeseries import DaemonSeries, MetricSeries
from repro.telemetry import PerfCounters


# ----------------------------------------------------------------------
# MetricSeries
# ----------------------------------------------------------------------
def test_series_ring_drops_oldest():
    s = MetricSeries()
    n = MetricSeries.CAPACITY
    for i in range(n + 3):
        s.record(float(i), float(i * 10))
    assert len(s) == n
    assert s.samples()[:2] == [(3.0, 30.0), (4.0, 40.0)]
    assert s.latest() == (float(n + 2), float((n + 2) * 10))


def test_series_rejects_time_going_backwards():
    s = MetricSeries()
    s.record(5.0, 1.0)
    with pytest.raises(ValueError):
        s.record(4.0, 2.0)
    s.record(5.0, 3.0)  # equal timestamps are allowed


def test_series_delta_and_rate():
    s = MetricSeries()
    for t in range(11):
        s.record(float(t), float(t * 3))  # 3 events/s counter
    assert s.delta() == 30.0
    assert s.rate() == pytest.approx(3.0)
    assert s.delta(window=4.0) == 12.0
    assert s.rate(window=4.0) == pytest.approx(3.0)
    # Degenerate cases answer 0.0, not crash.
    empty = MetricSeries()
    assert empty.delta() == 0.0 and empty.rate() == 0.0
    single = MetricSeries()
    single.record(1.0, 99.0)
    assert single.rate() == 0.0


def test_series_delta_counts_a_restart_from_zero():
    # A daemon restart resets its counters: the drop is a restart, and
    # the events after it still count (Prometheus increase()).
    s = MetricSeries()
    for t, v in enumerate([55.0, 60.0, 65.0, 5.0, 10.0, 15.0]):
        s.record(float(t * 2), v)
    assert s.delta() == 25.0
    assert s.rate() == pytest.approx(2.5)
    assert s.delta(window=4.0) == 10.0


def test_paxos_stall_check_survives_a_monitor_restart():
    # mon0 commits 5 per scrape and restarts mid-window.
    sample = _sample(time=10.0, roles={"mon0": "mon"})
    series = sample.series_of("mon0")
    for t, commits in zip(range(0, 11, 2), (55, 60, 65, 5, 10, 15)):
        series.series("gauge:paxos.pending_txns").record(float(t), 2.0)
        series.series("counter:paxos.commit").record(float(t),
                                                     float(commits))
    assert paxos_stall(sample) is None


def test_series_min_over_window():
    s = MetricSeries()
    for t, v in [(0.0, 10.0), (1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]:
        s.record(t, v)
    assert s.min_over() == 2.0
    assert s.min_over(window=1.0) == 4.0  # t in [2, 3]


# ----------------------------------------------------------------------
# DaemonSeries: dump flattening
# ----------------------------------------------------------------------
def test_daemon_series_flattens_dump():
    ds = DaemonSeries()
    dump = {
        "counters": {"paxos.commit": 42},
        "gauges": {"pg.count": 16, "role": "leader", "up": True},
        "latency": {"rpc.mds_req": {"mean": 0.002, "count": 7,
                                    "max": 0.01, "sum": 0.014}},
    }
    ds.observe_dump(1.0, dump)
    assert ds.maybe("counter:paxos.commit").latest() == (1.0, 42.0)
    assert ds.maybe("gauge:pg.count").latest() == (1.0, 16.0)
    # Non-numeric and boolean gauges are state, not signal.
    assert ds.maybe("gauge:role") is None
    assert ds.maybe("gauge:up") is None
    assert ds.maybe("latency:rpc.mds_req:sum").latest() == (1.0, 0.014)
    assert ds.maybe("latency:rpc.mds_req:count").latest() == (1.0, 7.0)
    # A window's mean latency is Δsum / Δcount; no running-mean series.
    assert ds.maybe("latency:rpc.mds_req:mean") is None


# ----------------------------------------------------------------------
# Health checks on synthetic samples
# ----------------------------------------------------------------------
def _sample(**kwargs):
    return ClusterSample(time=kwargs.pop("time", 100.0), **kwargs)


def test_worst_status_ladder():
    assert worst_status([]) == HEALTH_OK
    assert worst_status([HEALTH_OK, HEALTH_WARN]) == HEALTH_WARN
    assert worst_status([HEALTH_WARN, HEALTH_ERR,
                         HEALTH_OK]) == HEALTH_ERR


def test_osd_down_check_names_the_osd():
    osdmap = SimpleNamespace(
        epoch=9, osds={"osd0": "up", "osd1": "down", "osd2": "up"})
    res = osd_down(_sample(osdmap=osdmap))
    assert res.status == HEALTH_WARN
    assert "osd1" in res.summary
    assert res.detail["osds"] == ["osd1"]
    healthy = SimpleNamespace(epoch=9, osds={"osd0": "up"})
    assert osd_down(_sample(osdmap=healthy)) is None
    assert osd_down(_sample()) is None  # no map yet


def test_daemon_unreachable_check():
    res = daemon_unreachable(
        _sample(failed={"osd2": "EHOSTDOWN: daemon osd2 is down"}))
    assert res.status == HEALTH_WARN
    assert "osd2" in res.summary
    assert daemon_unreachable(_sample()) is None


def test_paxos_stall_check_requires_frozen_commits():
    sample = _sample(roles={"mon0": "mon"})
    series = sample.series_of("mon0")
    for t in range(90, 101):
        series.series("gauge:paxos.pending_txns").record(float(t), 2.0)
        series.series("counter:paxos.commit").record(float(t), 50.0)
    res = paxos_stall(sample)
    assert res is not None and res.status == HEALTH_ERR
    assert "mon0" in res.detail["monitors"]

    # Same pending backlog but commits advancing: live, not stalled.
    live = _sample(roles={"mon0": "mon"})
    s2 = live.series_of("mon0")
    for i, t in enumerate(range(90, 101)):
        s2.series("gauge:paxos.pending_txns").record(float(t), 2.0)
        s2.series("counter:paxos.commit").record(float(t), 50.0 + i)
    assert paxos_stall(live) is None


def test_mds_latency_regression_check():
    sample = _sample(roles={"mds0": "mds"})
    s = sample.series_of("mds0")
    # Long healthy history at 1 ms, then the recent window at 10 ms
    # (10 requests per second throughout).
    for t in range(0, 101):
        slow = max(t - 90, 0) * 10.0
        s.series("latency:rpc.mds_req:sum").record(
            float(t), (t * 10.0 - slow) * 0.001 + slow * 0.010)
        s.series("latency:rpc.mds_req:count").record(float(t), t * 10.0)
    res = mds_latency_regression(sample)
    assert res is not None and res.status == HEALTH_WARN
    assert "mds0" in res.detail["mds"]

    # Without recent traffic the check refuses to judge.
    quiet = _sample(roles={"mds0": "mds"})
    q = quiet.series_of("mds0")
    for t in range(0, 101):
        q.series("latency:rpc.mds_req:sum").record(float(t), 0.1)
        q.series("latency:rpc.mds_req:count").record(float(t), 100.0)
    assert mds_latency_regression(quiet) is None


def _mds_sample_from_dumps(phases):
    """Scrape a real registry every 2 s; ``phases`` is a list of
    (seconds, per-request latency, requests per scrape)."""
    perf = PerfCounters(owner="mds0")
    sample = _sample(time=0.0, roles={"mds0": "mds"})
    series = sample.series_of("mds0")
    for seconds, latency, per_scrape in phases:
        for _ in range(int(seconds / 2)):
            sample.time += 2.0
            for _ in range(per_scrape):
                perf.time("rpc.mds_req", latency)
            series.observe_dump(sample.time, perf.dump())
    return sample


def test_mds_latency_regression_sees_a_recent_slowdown():
    # 230 s at 1 ms, then 10 s at 10 ms: the tracker's running mean
    # only creeps to ~1.3 ms, but the recent requests are 10x slower.
    slow = _mds_sample_from_dumps([(230, 0.001, 100), (10, 0.010, 100)])
    res = mds_latency_regression(slow)
    assert res is not None and res.status == HEALTH_WARN
    detail = res.detail["mds"]["mds0"]
    assert detail["recent"] == pytest.approx(0.010)
    assert detail["baseline"] == pytest.approx(0.001)
    # Steady latency, and a slowdown with no recent requests, stay silent.
    steady = _mds_sample_from_dumps([(240, 0.001, 100)])
    assert mds_latency_regression(steady) is None
    idle = _mds_sample_from_dumps([(230, 0.001, 100), (10, 0.010, 0)])
    assert mds_latency_regression(idle) is None


def test_cap_revoke_stuck_check():
    sample = _sample(roles={"mds0": "mds"})
    s = sample.series_of("mds0")
    for t in range(92, 101, 2):
        s.series("gauge:caps.revoking").record(float(t), 1.0)
    res = cap_revoke_stuck(sample)
    assert res is not None and res.status == HEALTH_WARN
    # A revoke that completed inside the window clears the check.
    ok = _sample(roles={"mds0": "mds"})
    s2 = ok.series_of("mds0")
    for t, v in [(92, 1.0), (94, 1.0), (96, 0.0), (98, 1.0), (100, 1.0)]:
        s2.series("gauge:caps.revoking").record(float(t), v)
    assert cap_revoke_stuck(ok) is None


def test_sequencer_churn_check():
    sample = _sample(roles={"osd0": "osd", "osd1": "osd"})
    for osd in ("osd0", "osd1"):
        s = sample.series_of(osd)
        for t in range(90, 101):
            s.series("counter:objclass.zlog.seal").record(
                float(t), float(t))  # 1 seal/s each
    res = zlog_epoch_churn(sample)
    assert res is not None and res.status == HEALTH_WARN
    assert res.detail["seal_rate"] == pytest.approx(2.0)


def test_subtree_imbalance_check():
    sample = _sample(
        roles={"mds0": "mds", "mds1": "mds"},
        dumps={"mds0": {"gauges": {"mds.load": 400.0}},
               "mds1": {"gauges": {"mds.load": 10.0}}})
    res = mds_imbalance(sample)
    assert res is not None and res.status == HEALTH_WARN
    assert res.detail["loads"]["mds0"] == 400.0
    # Low absolute load never alarms, however skewed.
    tiny = _sample(
        roles={"mds0": "mds", "mds1": "mds"},
        dumps={"mds0": {"gauges": {"mds.load": 40.0}},
               "mds1": {"gauges": {"mds.load": 1.0}}})
    assert mds_imbalance(tiny) is None


def test_evaluate_health_aggregates_worst():
    sample = _sample(failed={"osd0": "EHOSTDOWN: down"})
    report = evaluate_health(CHECKS, sample)
    assert report.status == HEALTH_WARN
    assert report.check("DAEMON_UNREACHABLE") is not None
    clean = evaluate_health(CHECKS, _sample())
    assert clean.status == HEALTH_OK and clean.results == []
    assert HealthReport(0.0, []).to_dict()["checks"] == {}


# ----------------------------------------------------------------------
# Prometheus round trip
# ----------------------------------------------------------------------
def test_prometheus_export_round_trips():
    dumps = {
        "mon0": {"counters": {"paxos.commit": 42},
                 "gauges": {"mon.is_leader": 1, "state": "leader"},
                 "latency": {"rpc.mon_req": {
                     "count": 7, "sum": 0.014, "mean": 0.002,
                     "min": 0.001, "max": 0.01}}},
        "osd0": {"counters": {"op.read": 5},
                 "gauges": {"pg.count": 16}},
    }
    text = prometheus_export(dumps)
    samples = parse_prometheus_text(text)
    by_key = {(s.metric, s.labels["daemon"], s.labels["name"]): s.value
              for s in samples}
    assert by_key[("repro_counter_total", "mon0", "paxos.commit")] == 42
    assert by_key[("repro_gauge", "osd0", "pg.count")] == 16
    assert by_key[("repro_latency_count", "mon0", "rpc.mon_req")] == 7
    assert by_key[("repro_latency_mean", "mon0",
                   "rpc.mon_req")] == 0.002
    # Non-numeric gauges are not exported.
    assert ("repro_gauge", "mon0", "state") not in by_key
    # Every sample line sits under a TYPE declaration.
    assert text.count("# TYPE repro_counter_total counter") == 1


def test_prometheus_export_escapes_labels():
    dumps = {'we"ird\\d\naemon': {"counters": {"c": 1}}}
    text = prometheus_export(dumps)
    (sample,) = parse_prometheus_text(text)
    assert sample.labels["daemon"] == 'we"ird\\d\naemon'


def test_prometheus_parser_is_strict():
    with pytest.raises(ValueError):
        parse_prometheus_text("orphan_metric{a=\"b\"} 1\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("# TYPE m counter\nm{a=\"b\"} oops\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("# TYPE m counter\nm{a=b} 1\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("# TYPE m wrongtype\n")
    assert parse_prometheus_text("") == []


# ----------------------------------------------------------------------
# Mantle audit trail
# ----------------------------------------------------------------------
def test_audit_trail_ring_and_since_seq():
    trail = MantleAuditTrail()
    n = MantleAuditTrail.CAPACITY
    for i in range(n + 2):
        trail.record(float(i), rank=0, policy="v1", status="decided")
    assert len(trail) == n
    seqs = [r["seq"] for r in trail.records()]
    assert seqs == list(range(3, n + 3))  # oldest dropped, seq counts on
    assert [r["seq"] for r in trail.records(since_seq=n + 1)] == [n + 2]
    trail.clear()
    assert trail.records() == []
    nxt = trail.record(9.0, rank=0, policy="v1", status="decided")
    assert nxt["seq"] == n + 3  # never reissues seen sequence numbers


def test_audit_trail_record_shape():
    trail = MantleAuditTrail()
    rec = trail.record(
        12.0, rank=1, policy="seq-v2", status="decided",
        load_table=[{"rank": 0, "load": 9.0}],
        decision={"when": True, "targets": [0.0, 4.5], "routing": None},
        moves={0: ["/seq/a"]},
        counter_deltas={"migrate.export": 1.0})
    assert rec["policy"] == "seq-v2"
    assert rec["moves"] == {0: ["/seq/a"]}
    assert rec["counter_deltas"] == {"migrate.export": 1.0}
    err = trail.record(13.0, rank=1, policy="seq-v2",
                       status="policy-error", error="boom")
    assert err["error"] == "boom" and "moves" not in err


def test_merge_trails_orders_by_time():
    merged = merge_trails({
        "mds1": [{"seq": 1, "time": 5.0, "rank": 1, "policy": "p",
                  "status": "decided"}],
        "mds0": [{"seq": 1, "time": 3.0, "rank": 0, "policy": "p",
                  "status": "decided"},
                 {"seq": 2, "time": 7.0, "rank": 0, "policy": "p",
                  "status": "decided"}],
    })
    assert [(r["mds"], r["time"]) for r in merged] == [
        ("mds0", 3.0), ("mds1", 5.0), ("mds0", 7.0)]
