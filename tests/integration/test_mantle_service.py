"""Integration tests for Mantle on Malacology (paper section 5.1).

Covers the three properties the re-implementation inherits: consistent
policy *versioning* via the monitors, policy *durability* in RADOS
(including the bounded dereference with Connection Timeout), and
*centralized logging* of balancer faults — plus the actual migration
mechanism driven by injected policies.
"""

import pytest

from repro.core import LoadBalancingInterface, MalacologyCluster
from repro.errors import PolicyError
from repro.mantle import MantleBalancer, MantlePolicy, attach_balancers
from repro.mantle import builtin
from repro.mds.server import METADATA_POOL


def build(mdss=2, seed=51, osds=4):
    cluster = MalacologyCluster.build(osds=osds, mdss=mdss, seed=seed)
    attach_balancers(cluster)
    return cluster


def test_policy_version_propagates_to_all_balancers():
    c = build()
    lb = LoadBalancingInterface(c.admin)
    c.do(lb.publish_policy("v1", builtin.GREEDY_SPILL_HALF))
    c.run(12.0)  # one balancing tick
    for mds in c.mdss:
        assert mds.balancer.policy is not None
        assert mds.balancer.policy.version == "v1"


def test_policy_is_durable_in_rados():
    c = build()
    lb = LoadBalancingInterface(c.admin)
    c.do(lb.publish_policy("v-durable", builtin.CEPHFS_WORKLOAD))
    blob = c.do(c.admin.rados_read(METADATA_POOL,
                                   "mantle.policy.v-durable"))
    assert blob.decode() == builtin.CEPHFS_WORKLOAD


def test_policy_upgrade_swaps_without_restart():
    c = build()
    lb = LoadBalancingInterface(c.admin)
    c.do(lb.publish_policy("v1", builtin.GREEDY_SPILL_HALF))
    c.run(12.0)
    c.do(lb.publish_policy("v2", builtin.MANTLE_SEQUENCER))
    c.run(12.0)
    assert all(m.balancer.policy.version == "v2" for m in c.mdss)
    assert c.do(lb.get_version()) == "v2"


def test_broken_policy_is_rejected_and_logged_centrally():
    c = build()
    lb = LoadBalancingInterface(c.admin)
    c.do(lb.publish_policy("v-broken", "def when(:\n"))
    c.run(12.0)
    # Balancers keep running (no crash) with no policy loaded.
    assert all(m.balancer.policy is None for m in c.mdss)
    tail = c.do(c.admin.mon_request("mon_log_tail", {"count": 50}))
    assert any("rejected" in e.message and e.severity == "ERR"
               for e in tail)


def test_policy_runtime_fault_logged_not_fatal():
    c = build()
    source = "def when():\n    return 1 / 0\n"
    lb = LoadBalancingInterface(c.admin)
    c.do(lb.publish_policy("v-faulty", source))
    c.run(25.0)
    tail = c.do(c.admin.mon_request("mon_log_tail", {"count": 50}))
    assert any("mantle policy" in e.message for e in tail)
    assert all(m.alive for m in c.mdss)


def test_policy_read_connection_timeout_is_reported():
    c = build(mdss=1)
    lb = LoadBalancingInterface(c.admin)
    # Point the version at a policy object, then take the object store
    # down so the dereference cannot complete within half a tick.
    c.do(lb.publish_policy("v-slow", builtin.GREEDY_SPILL_HALF))
    # Force a reload by bumping the version WITHOUT a readable object:
    # all OSDs go dark first, so the RADOS read stalls.
    c.do(lb.set_version("v-unreachable"))
    for osd in c.osds:
        osd.crash()
    c.run(30.0)
    leader = c.leader_monitor()
    assert any("Connection Timeout" in e.message
               for e in leader.store.cluster_log), (
        [e.message for e in leader.store.cluster_log][-10:])


def test_explicit_migration_moves_authority_and_data():
    c = build(mdss=2)
    c.do(c.admin.fs_mkdir("/hotdir"))
    c.do(c.admin.fs_create("/hotdir/seq", file_type="sequencer"))
    src = c.mds_of_rank(0)
    proc = src.spawn(src.migrate_subtree("/hotdir", 1))
    c.sim.run_until_complete(proc)
    m = c.mons[0].store.mdsmap
    assert m.subtrees["/hotdir"] == 1
    assert not src.ns.has("/hotdir/seq")
    assert c.mds_of_rank(1).ns.has("/hotdir/seq")
    # Clients keep working across the migration.
    st = c.do(c.admin.fs_stat("/hotdir/seq"))
    assert st["file_type"] == "sequencer"
    pos = c.do(c.admin.seq_next("/hotdir/seq"))
    assert pos == 0


def test_migration_preserves_sequencer_tail():
    c = build(mdss=2)
    c.do(c.admin.fs_mkdir("/keeptail"))
    c.do(c.admin.fs_create("/keeptail/seq", file_type="sequencer"))
    for _ in range(5):
        c.do(c.admin.seq_next("/keeptail/seq"))
    src = c.mds_of_rank(0)
    c.sim.run_until_complete(
        src.spawn(src.migrate_subtree("/keeptail", 1)))
    # The tail carries over: no positions are re-issued.
    assert c.do(c.admin.seq_next("/keeptail/seq")) == 5


def test_proxy_mode_forwards_and_client_mode_redirects():
    c = build(mdss=2)
    lb = LoadBalancingInterface(c.admin)
    c.do(c.admin.fs_mkdir("/moved"))
    c.do(c.admin.fs_create("/moved/f"))
    src = c.mds_of_rank(0)
    c.sim.run_until_complete(src.spawn(src.migrate_subtree("/moved", 1)))

    # Proxy mode: a request sent to the WRONG MDS still succeeds
    # (forwarded internally), no redirect error.
    c.do(lb.set_routing_mode("proxy"))
    c.run(0.5)
    stale = c.new_client("stale-proxy")
    fut = stale.call(c.mds_of_rank(0).name, "mds_req",
                     {"op": "stat", "path": "/moved/f", "args": {}},
                     timeout=5.0)
    result = c.sim.run_until_complete(fut)
    assert result["kind"] == "file"

    # Client mode: the wrong MDS bounces us with the owner's rank.
    c.do(lb.set_routing_mode("client"))
    c.run(0.5)
    from repro.errors import WrongMDS

    stale2 = c.new_client("stale-client")
    fut2 = stale2.call(c.mds_of_rank(0).name, "mds_req",
                       {"op": "stat", "path": "/moved/f", "args": {}},
                       timeout=5.0)
    c.sim.run(until=c.sim.now + 2.0)
    with pytest.raises(WrongMDS) as excinfo:
        fut2.result()
    assert excinfo.value.rank == 1


def test_greedy_spill_policy_migrates_hot_sequencers():
    c = build(mdss=2, seed=52)
    lb = LoadBalancingInterface(c.admin)
    c.do(lb.publish_policy("spill", builtin.GREEDY_SPILL_HALF))
    c.do(c.admin.fs_mkdir("/load"))
    for i in range(4):
        c.do(c.admin.fs_create(f"/load/seq{i}", file_type="sequencer"))
    # Round-trip mode so every request lands on the MDS (load shows up).
    from repro.core import SharedResourceInterface

    c.do(SharedResourceInterface(c.admin).set_lease_policy("round-trip"))

    clients = [c.new_client(f"w{i}") for i in range(4)]

    def hammer(cl, path):
        while True:
            yield from cl.seq_next(path)

    for i, cl in enumerate(clients):
        cl.spawn(hammer(cl, f"/load/seq{i}"))
    c.run(45.0)  # several balancing ticks
    m = c.mons[0].store.mdsmap
    moved = [p for p, r in m.subtrees.items()
             if p.startswith("/load") and r == 1]
    assert moved, f"policy never migrated anything: {m.subtrees}"


def test_policy_source_validation_rejects_missing_when():
    with pytest.raises(PolicyError):
        MantlePolicy("bad", "x = 1\n")
