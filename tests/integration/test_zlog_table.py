"""Integration tests: transactional table over the shared log (§7).

The future-work "elastic database" pattern: serializable
read-modify-write via optimistic concurrency decided by deterministic
log replay.
"""

import pytest

from repro.core import MalacologyCluster
from repro.errors import NotFound
from repro.zlog import StripeLayout, TransactionalTable, ZLog
from repro.zlog.log import sequencer_path


@pytest.fixture(scope="module")
def cluster():
    return MalacologyCluster.build(osds=4, mdss=1, seed=73)


def make_table(cluster, name, client=None):
    client = client or cluster.admin
    log = ZLog(client, name, layout=StripeLayout(name, width=4))
    if client is cluster.admin:
        cluster.do(log.create())
    else:
        cluster.sim.run_until_complete(client.do(log.open()))
    return TransactionalTable(log)


def test_blind_puts_and_reads(cluster):
    t = make_table(cluster, "txn-basic")
    c = cluster
    c.do(t.blind_put("a", 1))
    c.do(t.blind_put("b", 2))
    assert c.do(t.get("a")) == 1
    assert c.do(t.snapshot()) == {"a": 1, "b": 2}
    with pytest.raises(NotFound):
        c.do(t.get("ghost"))


def test_read_modify_write_commits(cluster):
    t = make_table(cluster, "txn-rmw")
    c = cluster
    c.do(t.blind_put("counter", 0))
    for _ in range(5):
        c.do(t.transact(["counter"],
                        lambda vals: {"counter": vals["counter"] + 1}))
    assert c.do(t.get("counter")) == 5
    assert t.aborts == 0


def test_conflicting_writers_serialize_without_lost_updates(cluster):
    c = cluster
    name = "txn-race"
    make_table(c, name)  # creates the log
    clients = [c.new_client(f"txn{i}") for i in range(3)]
    tables = [make_table(c, name, client=cl) for cl in clients]

    def incrementer(table, count):
        for _ in range(count):
            yield from table.transact(
                ["counter"],
                lambda vals: {"counter": (vals["counter"] or 0) + 1})
        return table

    procs = [cl.do(incrementer(t, 10))
             for cl, t in zip(clients, tables)]
    for p in procs:
        c.sim.run_until_complete(p)
    verifier = make_table(c, name, client=c.new_client("txn-verify"))
    # 30 increments from 3 racing writers: no lost updates.
    assert c.sim.run_until_complete(
        verifier.log.client.do(verifier.get("counter"))) == 30


def test_replicas_agree_on_every_verdict(cluster):
    c = cluster
    name = "txn-verdicts"
    t1 = make_table(c, name)
    c.do(t1.blind_put("x", 0))
    c.do(t1.transact(["x"], lambda v: {"x": v["x"] + 1}))
    # Manually append a doomed transaction: stale read version.
    c.do(t1.log.append({"kind": "txn", "reads": {"x": 0},
                        "writes": {"x": 999}}))
    c.do(t1.sync())
    replica = make_table(c, name, client=c.new_client("txn-replica"))
    snap = c.sim.run_until_complete(
        replica.log.client.do(replica.snapshot()))
    assert snap == {"x": 1}
    assert replica.aborts == 1
    assert replica.commits == t1.commits


def test_transaction_with_multiple_keys_is_atomic(cluster):
    t = make_table(cluster, "txn-multi")
    c = cluster
    c.do(t.blind_put("from", 100))
    c.do(t.blind_put("to", 0))

    def transfer(vals):
        return {"from": vals["from"] - 30, "to": vals["to"] + 30}

    c.do(t.transact(["from", "to"], transfer))
    snap = c.do(t.snapshot())
    assert snap == {"from": 70, "to": 30}
    assert snap["from"] + snap["to"] == 100


def test_replica_fills_a_hole_and_applies_later_entries(cluster):
    c = cluster
    name = "txn-hole"
    t = make_table(c, name)
    c.do(t.blind_put("a", 1))
    # A writer takes a position from the sequencer and dies before
    # writing it: a hole in the middle of the log.
    hole = c.do(c.admin.seq_next(sequencer_path(name)))
    c.do(t.blind_put("b", 2))
    replica = make_table(c, name, client=c.new_client("txn-hole-replica"))
    snap = c.sim.run_until_complete(
        replica.log.client.do(replica.snapshot()))
    assert snap == {"a": 1, "b": 2}
    assert c.do(t.log.read(hole)) == {"state": "filled"}
    assert replica.commits == 2
