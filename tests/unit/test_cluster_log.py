"""Unit tests for the centralized cluster log.

Entry validation/formatting/severity filtering, MonitorStore append
ordering and capacity truncation, and the mgr's health-transition
entries landing in the log.
"""

import pytest

from repro.monitor.cluster_log import (
    DEBUG,
    ERROR,
    INFO,
    WARN,
    ClusterLogEntry,
    max_severity,
    severity_level,
)
from repro.monitor.store import MonitorStore


def entry(t, severity=INFO, who="mds0", message="m"):
    return ClusterLogEntry(time=t, severity=severity, who=who,
                           message=message)


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------
def test_entry_rejects_unknown_severity():
    with pytest.raises(ValueError):
        ClusterLogEntry(time=0.0, severity="FATAL", who="x", message="m")


def test_severity_ladder():
    assert (severity_level(DEBUG) < severity_level(INFO)
            < severity_level(WARN) < severity_level(ERROR))
    with pytest.raises(ValueError):
        severity_level("NOPE")
    assert max_severity(INFO, ERROR, WARN) == ERROR
    assert max_severity(DEBUG) == DEBUG
    with pytest.raises(ValueError):
        max_severity()


def test_at_least_filtering():
    entries = [entry(0.0, DEBUG), entry(1.0, INFO), entry(2.0, WARN),
               entry(3.0, ERROR)]
    warnings = [e for e in entries if e.at_least(WARN)]
    assert [e.severity for e in warnings] == [WARN, ERROR]
    assert all(e.at_least(DEBUG) for e in entries)


def test_entry_round_trip_and_format():
    e = entry(12.5, WARN, who="mgr0", message="OSD_DOWN: 1 osds down")
    # Through the log and back out: the frozen entry is the record.
    store = MonitorStore(["mon0"])
    store.apply_batch([{"op": "log", "entry": e}])
    assert store.log_tail(1)[0] is e
    line = e.format()
    assert "WRN" in line and "[mgr0]" in line
    assert "OSD_DOWN: 1 osds down" in line


# ----------------------------------------------------------------------
# MonitorStore: ordering and truncation
# ----------------------------------------------------------------------
def test_store_append_preserves_order():
    store = MonitorStore(["mon0"])
    for i in range(10):
        store.apply_batch([{"op": "log",
                            "entry": entry(float(i), message=f"m{i}")}])
    times = [e.time for e in store.cluster_log]
    assert times == sorted(times) and len(times) == 10
    tail = store.log_tail(3)
    assert [e.message for e in tail] == ["m7", "m8", "m9"]


def test_store_truncates_at_capacity():
    store = MonitorStore(["mon0"])
    limit = 40
    store.MAX_LOG_ENTRIES = limit
    total = limit + 1  # first append past the cap triggers the halving
    for i in range(total):
        store.apply_batch([{"op": "log", "entry": entry(float(i))}])
    # Oldest half dropped, newest entries intact.
    assert len(store.cluster_log) == total - (limit + 1) // 2
    assert store.cluster_log[-1].time == float(total - 1)
    assert store.cluster_log[0].time > 0.0


# ----------------------------------------------------------------------
# Health transitions land in the cluster log
# ----------------------------------------------------------------------
def test_mgr_health_transition_reaches_cluster_log():
    from repro.core.cluster import MalacologyCluster

    cluster = MalacologyCluster.build(osds=2, mdss=1, mons=3, seed=17,
                                      mgr=True)
    cluster.run(6.0)  # a few scrapes: steady HEALTH_OK, no log traffic
    leader = cluster.leader_monitor()
    before = [e for e in leader.store.cluster_log if e.who == "mgr0"]
    assert before == []  # transitions only: healthy runs stay silent

    cluster.osds[0].crash()
    cluster.run(20.0)
    assert cluster.health()["status"] != "HEALTH_OK"
    leader = cluster.leader_monitor()
    mgr_entries = [e for e in leader.store.cluster_log
                   if e.who == "mgr0"]
    assert mgr_entries, "health transition should be logged centrally"
    assert any(e.at_least(WARN) and "osd0" in e.message
               for e in mgr_entries)
