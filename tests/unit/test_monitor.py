"""Integration-style unit tests for the monitor quorum."""

import pytest

from repro.errors import NotFound, NotPermitted
from repro.monitor.store import MonitorStore
from repro.sim import FailureInjector
from repro.testing import (
    ScriptClient,
    build_monitor_quorum,
    run_script,
    settle_quorum,
)


def make_cluster(count=3, seed=0, proposal_interval=0.1):
    sim, net, mons = build_monitor_quorum(count=count, seed=seed,
                                          proposal_interval=proposal_interval)
    leader = settle_quorum(sim, mons)
    client = ScriptClient(sim, net, "client", [m.name for m in mons])
    return sim, net, mons, leader, client


def test_leader_is_lowest_rank():
    sim, net, mons, leader, client = make_cluster()
    assert leader.name == "mon0"
    assert all(m.leader == "mon0" for m in mons)


def test_kv_put_then_get_round_trip():
    sim, net, mons, leader, client = make_cluster()
    version = run_script(sim, client, client.mon_kv_put("greeting", "hello"))
    assert version == 1
    entry = run_script(sim, client, client.mon_kv_get("greeting"))
    assert entry == {"value": "hello", "version": 1}


def test_kv_versions_increment_per_write():
    sim, net, mons, leader, client = make_cluster()
    assert run_script(sim, client, client.mon_kv_put("k", "a")) == 1
    assert run_script(sim, client, client.mon_kv_put("k", "b")) == 2
    entry = run_script(sim, client, client.mon_kv_get("k"))
    assert entry == {"value": "b", "version": 2}


def test_kv_get_missing_key_raises():
    sim, net, mons, leader, client = make_cluster()
    with pytest.raises(NotFound):
        run_script(sim, client, client.mon_kv_get("nope"))


def test_kv_replicated_to_all_monitors():
    sim, net, mons, leader, client = make_cluster()
    run_script(sim, client, client.mon_kv_put("k", 42))
    sim.run(until=sim.now + 1.0)  # let commits reach followers
    for m in mons:
        assert m.store.kv["k"]["value"] == 42


def test_submit_via_follower_is_proxied_to_leader():
    sim, net, mons, leader, client = make_cluster()
    follower = next(m.name for m in mons if not m.is_leader)
    client.mon_names = [follower]
    client._mon_cursor = 0
    version = run_script(sim, client, client.mon_kv_put("via-follower", 1))
    assert version == 1


def test_map_update_bumps_epoch_once_per_txn():
    sim, net, mons, leader, client = make_cluster()
    before = leader.store.osdmap.epoch
    run_script(sim, client, client.mon_submit([{
        "op": "map_update", "kind": "osd",
        "actions": [
            {"action": "set_osd_state", "name": "osd0", "state": "up"},
            {"action": "set_osd_state", "name": "osd1", "state": "up"},
        ]}]))
    assert leader.store.osdmap.epoch == before + 1
    assert leader.store.osdmap.up_osds() == ("osd0", "osd1")


def test_subscription_pushes_new_maps():
    sim, net, mons, leader, client = make_cluster()
    run_script(sim, client, client.mon_subscribe(["osd"]))
    run_script(sim, client, client.mon_submit([{
        "op": "map_update", "kind": "osd",
        "actions": [{"action": "set_osd_state", "name": "osdX",
                     "state": "up"}]}]))
    sim.run(until=sim.now + 1.0)
    assert "osd" in client.cached_maps
    assert client.cached_maps["osd"].is_up("osdX")


def test_cluster_log_append_and_tail():
    sim, net, mons, leader, client = make_cluster()
    run_script(sim, client, client.mon_log("WRN", "balancer swapped"))
    tail = run_script(sim, client,
                      client.mon_request("mon_log_tail", {"count": 10}))
    assert any(e.message == "balancer swapped" for e in tail)


def test_leader_failover_preserves_data_and_liveness():
    sim, net, mons, leader, client = make_cluster()
    run_script(sim, client, client.mon_kv_put("durable", "yes"))
    inj = FailureInjector(sim, net)
    sim.schedule(0.1, inj.crash, leader)
    sim.run(until=sim.now + 5.0)
    new_leaders = [m for m in mons if m.alive and m.is_leader]
    assert len(new_leaders) == 1
    assert new_leaders[0].name != leader.name
    # Old data survives; new writes work.
    entry = run_script(sim, client, client.mon_kv_get("durable"))
    assert entry["value"] == "yes"
    assert run_script(sim, client, client.mon_kv_put("post-failover", 1)) == 1


def test_restarted_monitor_catches_up():
    sim, net, mons, leader, client = make_cluster()
    victim = next(m for m in mons if not m.is_leader)
    victim.crash()
    for i in range(3):
        run_script(sim, client, client.mon_kv_put(f"k{i}", i))
    victim.restart()
    sim.run(until=sim.now + 5.0)
    for i in range(3):
        assert victim.store.kv[f"k{i}"]["value"] == i


def test_no_quorum_blocks_writes_until_heal():
    sim, net, mons, leader, client = make_cluster()
    mons[1].crash()
    mons[2].crash()
    # With 1/3 monitors alive there is no quorum; the write must not
    # complete while partitioned.
    proc = client.do(client.mon_kv_put("stalled", 1))
    sim.run(until=sim.now + 3.0)
    assert not proc.done
    mons[1].restart()
    sim.run(until=sim.now + 10.0)
    assert proc.done


def test_kv_guard_sanitizes_and_rejects():
    sim, net, mons, leader, client = make_cluster()

    def guard(key, value):
        if value == "forbidden":
            raise NotPermitted("nope")
        return str(value).upper()

    for m in mons:
        m.store.register_kv_guard("policy/", guard)
    run_script(sim, client, client.mon_kv_put("policy/x", "ok"))
    entry = run_script(sim, client, client.mon_kv_get("policy/x"))
    assert entry["value"] == "OK"
    with pytest.raises(NotPermitted):
        run_script(sim, client, client.mon_kv_put("policy/y", "forbidden"))


def test_store_apply_is_deterministic_across_replicas():
    a = MonitorStore(["m0", "m1", "m2"])
    b = MonitorStore(["m0", "m1", "m2"])
    batch = [
        {"op": "kv_put", "key": "k", "value": [1, 2]},
        {"op": "map_update", "kind": "mds",
         "actions": [{"action": "set_rank", "rank": 0, "name": "mds.a"}]},
        {"op": "kv_del", "key": "gone"},
    ]
    a.apply_batch(batch)
    b.apply_batch(batch)
    assert a.snapshot() == b.snapshot()


def test_kv_list_by_prefix():
    store = MonitorStore(["m0"])
    store.apply_batch([
        {"op": "kv_put", "key": "mantle/v1", "value": "x"},
        {"op": "kv_put", "key": "mantle/v2", "value": "y"},
        {"op": "kv_put", "key": "zlog/seq", "value": "z"},
    ])
    assert sorted(store.kv_list("mantle/")) == ["mantle/v1", "mantle/v2"]


def test_new_leader_adopts_an_accepted_uncommitted_batch():
    """Paxos phase 1 carries a chosen value across a leader crash.

    A quorum accepts the leader's batch, but none of its
    ``paxos_commit`` casts arrive and the leader dies before anything
    else does.  Its successor must learn the batch from the prepare
    replies and commit it at the same instance — not fill the gap
    with a no-op, which would lose an acknowledged write.
    """
    sim, net, mons, leader, client = make_cluster()
    commits = []    # (sender, instance, batch id) of every commit cast

    def hook(src, dst, envelope):
        if envelope.method != "paxos_commit":
            return None
        payload = envelope.payload
        commits.append((src, payload["instance"], payload["value"]["id"]))
        return [] if src == leader.name else None

    net.fault_hook = hook
    assert run_script(sim, client, client.mon_kv_put("adopted", 1)) == 1
    leader.crash()
    dropped = {(inst, batch) for src, inst, batch in commits
               if src == leader.name}
    assert len(dropped) == 1
    followers = [m for m in mons if m is not leader]
    assert all("adopted" not in m.store.kv for m in followers)

    sim.run(until=sim.now + 5.0)
    successor = next(m for m in followers if m.is_leader)
    assert {(inst, batch) for src, inst, batch in commits
            if src == successor.name} >= dropped
    for m in followers:
        assert m.store.kv["adopted"] == {"value": 1, "version": 1}
    # Applied once: the next write is the key's second version.
    assert run_script(sim, client, client.mon_kv_put("adopted", 2)) == 2
