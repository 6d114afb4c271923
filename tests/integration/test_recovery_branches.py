"""Recovery branches that only a fault reaches, each driven on purpose.

Every test here sets up the one condition its branch exists for — a
rival Paxos promise, a crash with cap waiters queued, a restart with a
changelog attached, a push that beats the OSD map — and checks what
the branch must leave behind.  Replacing any of these branches with a
no-op makes its test fail.
"""

from repro.core import MalacologyCluster, SharedResourceInterface
from repro.errors import CapRevoked
from repro.rados.objects import StoredObject
from repro.testing import (
    ScriptClient,
    build_monitor_quorum,
    run_script,
    settle_quorum,
)


# ----------------------------------------------------------------------
# Paxos: a higher promise ends a leadership, or blocks one from starting
# ----------------------------------------------------------------------
def test_leader_abdicates_when_its_accepts_are_rejected():
    """A rival's higher promise makes the leader step down, and the
    write it could not commit is adopted by the next leadership."""
    sim, net, mons = build_monitor_quorum(count=3, seed=3)
    leader = settle_quorum(sim, mons)
    client = ScriptClient(sim, net, "client", [m.name for m in mons])
    term = leader.current_pid[0]
    followers = [m for m in mons if m is not leader]
    for m in followers:
        # Phase 1 of a rival proposer that reached only the followers.
        assert m.acceptor.handle_prepare((term + 1, 2), 0).ok
    put = client.do(client.mon_kv_put("contested", 1))
    sim.run(until=sim.now + 0.5)
    assert not leader.is_leader and leader.book is None
    assert not put.completion.done

    assert sim.run_until_complete(put.completion,
                                  limit=sim.now + 20.0) == 1
    new_leader = next(m for m in mons if m.is_leader)
    assert new_leader.current_pid > (term + 1, 2)
    sim.run(until=sim.now + 1.0)
    for m in mons:
        assert m.store.kv["contested"] == {"value": 1, "version": 1}


def test_take_office_defers_to_a_higher_promise():
    """An acceptor promised beyond the candidate's term refuses its
    prepare: the candidate learns the term and wins only above it."""
    sim, net, mons = build_monitor_quorum(count=3, seed=3)
    # A durable promise from an earlier proposer, left on one acceptor.
    mons[2].acceptor.handle_prepare((5, 2), 0)
    leader = settle_quorum(sim, mons)
    assert leader.current_pid[0] > 5
    assert leader.max_term_seen >= leader.current_pid[0]
    for m in mons:
        assert m.acceptor.promised <= leader.current_pid
    client = ScriptClient(sim, net, "client", [m.name for m in mons])
    assert run_script(sim, client, client.mon_kv_put("k", "v")) == 1


# ----------------------------------------------------------------------
# MDS restart: queued cap waiters and the changelog producer
# ----------------------------------------------------------------------
def test_mds_crash_fails_queued_cap_waiters():
    c = MalacologyCluster.build(osds=3, mdss=1, seed=5)
    c.do(SharedResourceInterface(c.admin).set_lease_policy(
        "delay", min_hold=0.5))
    c.do(c.admin.fs_mkdir("/w"))
    c.do(c.admin.fs_create("/w/seq", file_type="sequencer"))
    holder = c.new_client("a")
    c.sim.run_until_complete(holder.do(holder.seq_next("/w/seq")))
    waiters = [c.new_client(n) for n in ("b", "d")]
    for w in waiters:
        w.do(w.fs_request("open", "/w/seq"))
    c.sim.run(until=c.sim.now + 0.01)
    mds = c.mdss[0]
    queued = mds.locker.queued()
    assert len(queued) == 2 and not any(f.done for f in queued)
    mds.crash()
    for fut in queued:
        assert fut.failed and isinstance(fut.error, CapRevoked)
    assert mds.locker.queued() == []


def test_mds_restart_starts_a_new_changelog_incarnation():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=80,
                                changelog=True)
    c.run(3.0)
    client = c.new_client("app")
    mds = c.mdss[0]

    def create(n, tag):
        def work():
            for i in range(n):
                yield from client.fs_create(f"/t/{tag}{i}")
        c.sim.run_until_complete(client.do(work()))

    c.do(c.admin.fs_mkdir("/t"))
    create(3, "before")
    assert mds.changelog.producer_id == f"{mds.name}#1"
    mds.crash()
    c.run(1.0)
    mds.restart()
    c.run(5.0)
    assert mds.changelog.producer_id == f"{mds.name}#2"
    create(3, "after")
    c.run(8.0)  # flush and consume

    creates = [r for r in c.audit_pipeline.received
               if r["kind"] == "create" and r["producer"].startswith(
                   f"{mds.name}#")]
    by_path = {r["path"]: r for r in creates}
    assert len(by_path) == len(creates) == 6
    after = [by_path[f"/t/after{i}"] for i in range(3)]
    assert [r["producer"] for r in after] == [f"{mds.name}#2"] * 3
    assert [r["pseq"] for r in after] == [1, 2, 3]


# ----------------------------------------------------------------------
# OSD: a PG store materialized before its pool's map entry
# ----------------------------------------------------------------------
def test_osd_retypes_a_store_created_before_the_map():
    """A backfill push from a peer whose map is newer lands before the
    pool's map entry: the PG is materialized with the default store,
    then moved into the declared backend once the map arrives."""
    c = MalacologyCluster.build(osds=3, mdss=1, seed=7)
    osd = c.osds[2]
    obj = StoredObject("obj")
    obj.write(0, b"x" * 64)
    c.sim.run_until_complete(c.admin.call(
        osd.name, "pg_push",
        {"pool": "logged", "pg": 0, "objects": {"obj": obj}}))
    assert osd.pgs[("logged", 0)].profile == "memstore"
    c.do(c.admin.rados_create_pool("logged", size=3, pg_num=1,
                                   backend="logstructured"))
    c.run(2.0)
    assert "logged" in osd.osdmap.pools
    store = osd.pgs[("logged", 0)]
    assert store.profile == "logstructured"
    assert list(store) == ["obj"]
    assert store["obj"].read() == b"x" * 64
