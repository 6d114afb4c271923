"""Unit tests: monitor store edge cases and cluster conveniences."""

import pytest

from repro.errors import InvalidArgument
from repro.monitor.cluster_log import INFO
from repro.monitor.store import MonitorStore
from repro.testing import (
    ScriptClient,
    build_monitor_quorum,
    run_script,
    settle_quorum,
)


def test_cluster_log_is_bounded():
    store = MonitorStore(["m0"])
    store.MAX_LOG_ENTRIES = 10
    for i in range(25):
        store.apply_batch([{"op": "log", "entry": {
            "time": float(i), "severity": INFO, "who": "t",
            "message": f"m{i}"}}])
    assert len(store.cluster_log) <= 10
    # The newest entries survive truncation.
    assert store.cluster_log[-1].message == "m24"


def test_log_tail_bounds():
    store = MonitorStore(["m0"])
    for i in range(5):
        store.apply_batch([{"op": "log", "entry": {
            "time": float(i), "severity": INFO, "who": "t",
            "message": f"m{i}"}}])
    assert [e.message for e in store.log_tail(2)] == ["m3", "m4"]
    assert store.log_tail(0) == []
    assert len(store.log_tail(100)) == 5


def test_invalid_txn_yields_error_result_not_crash():
    store = MonitorStore(["m0"])
    results = store.apply_batch([
        {"op": "kv_put", "key": "good", "value": 1},
        {"op": "warp-drive"},
        {"op": "kv_put", "key": "also-good", "value": 2},
    ])
    assert results[0] == 1
    assert isinstance(results[1], InvalidArgument)
    assert results[2] == 1
    # Surrounding transactions in the batch still applied.
    assert store.kv["good"]["value"] == 1
    assert store.kv["also-good"]["value"] == 2


def test_duplicate_pool_creation_is_an_error_result():
    store = MonitorStore(["m0"])
    batch = [{"op": "map_update", "kind": "osd",
              "actions": [{"action": "create_pool", "name": "p"}]}]
    store.apply_batch(batch)
    results = store.apply_batch(batch)
    assert isinstance(results[0], InvalidArgument)


def test_snapshot_restore_round_trip():
    store = MonitorStore(["m0", "m1", "m2"])
    store.apply_batch([
        {"op": "kv_put", "key": "k", "value": {"deep": [1, 2]}},
        {"op": "map_update", "kind": "mds",
         "actions": [{"action": "set_balancer_version",
                      "version": "v3"}]},
        {"op": "log", "entry": {"time": 1.0, "severity": INFO,
                                "who": "x", "message": "hello"}},
    ])
    snap = store.snapshot()
    other = MonitorStore(["m0", "m1", "m2"])
    other.restore(snap)
    assert other.snapshot() == snap
    assert other.mdsmap.balancer_version == "v3"


def test_subscribe_rejects_unknown_kinds():
    sim, net, mons = build_monitor_quorum(count=3, seed=201)
    settle_quorum(sim, mons)
    client = ScriptClient(sim, net, "c", [m.name for m in mons])
    fut = client.call("mon0", "mon_subscribe", {"kinds": ["martian"]},
                      timeout=2.0)
    sim.run(until=sim.now + 1.0)
    with pytest.raises(InvalidArgument):
        fut.result()


def test_kv_del_then_put_restarts_versioning():
    store = MonitorStore(["m0"])
    store.apply_batch([{"op": "kv_put", "key": "k", "value": "a"}])
    store.apply_batch([{"op": "kv_put", "key": "k", "value": "b"}])
    store.apply_batch([{"op": "kv_del", "key": "k"}])
    results = store.apply_batch([{"op": "kv_put", "key": "k",
                                  "value": "c"}])
    assert results[0] == 1  # versions restart after delete
