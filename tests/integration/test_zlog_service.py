"""Integration tests for ZLog: the CORFU protocol end to end."""

import pytest

from repro.core import MalacologyCluster, SharedResourceInterface
from repro.errors import NotFound, ReadOnly, StaleEpoch
from repro.zlog import StripeLayout, TransactionalTable, ZLog, recover_log
from repro.zlog.log import sequencer_path


@pytest.fixture(scope="module")
def cluster():
    return MalacologyCluster.build(osds=4, mdss=1, seed=41)


def make_log(cluster, name, client=None, width=4):
    client = client or cluster.admin
    log = ZLog(client, name, layout=StripeLayout(name, width=width))
    cluster.sim.run_until_complete(client.do(log.create()))
    return log


def test_append_read_round_trip(cluster):
    log = make_log(cluster, "basic")
    c = cluster
    p0 = c.do(log.append({"msg": "first"}))
    p1 = c.do(log.append({"msg": "second"}))
    assert (p0, p1) == (0, 1)
    assert c.do(log.read(0))["data"] == {"msg": "first"}
    assert c.do(log.read(1))["data"] == {"msg": "second"}


def test_positions_stripe_across_objects(cluster):
    log = make_log(cluster, "striped", width=3)
    objs = {log.layout.object_of(p) for p in range(9)}
    assert len(objs) == 3
    c = cluster
    for i in range(6):
        c.do(log.append(i))
    assert [c.do(log.read(i))["data"] for i in range(6)] == list(range(6))


def test_read_unwritten_position_raises(cluster):
    log = make_log(cluster, "holes")
    with pytest.raises(NotFound):
        cluster.do(log.read(17))


def test_fill_then_writer_gets_bounced(cluster):
    log = make_log(cluster, "filled")
    c = cluster
    c.do(log.fill(0))
    assert c.do(log.read(0)) == {"state": "filled"}
    with pytest.raises(ReadOnly):
        c.do(c.admin.rados_exec(
            log.layout.pool, log.layout.object_of(0), "zlog", "write",
            {"epoch": log.epoch, "pos": 0, "data": "late"}))


def test_multi_client_appends_are_uniquely_positioned(cluster):
    log_name = "shared"
    make_log(cluster, log_name)
    c = cluster
    clients = [c.new_client(f"zl{i}") for i in range(3)]
    logs = [ZLog(cl, log_name) for cl in clients]
    for lg in logs:
        c.sim.run_until_complete(lg.client.do(lg.open()))

    def appender(lg, count, tag):
        out = []
        for i in range(count):
            pos = yield from lg.append(f"{tag}:{i}")
            out.append(pos)
        return out

    procs = [lg.client.do(appender(lg, 30, f"c{i}"))
             for i, lg in enumerate(logs)]
    results = [c.sim.run_until_complete(p) for p in procs]
    everything = sorted(pos for r in results for pos in r)
    assert everything == list(range(90))


def test_seal_fences_stale_epoch_appends(cluster):
    log = make_log(cluster, "fenced")
    c = cluster
    c.do(log.append("pre-seal"))
    stale_epoch = log.epoch
    new_epoch, new_tail = c.do(recover_log(log))
    assert new_epoch == stale_epoch + 1
    assert new_tail == 1
    with pytest.raises(StaleEpoch):
        c.do(c.admin.rados_exec(
            log.layout.pool, log.layout.object_of(5), "zlog", "write",
            {"epoch": stale_epoch, "pos": 5, "data": "zombie"}))


def test_stale_client_recovers_transparently(cluster):
    log_name = "transparent"
    log = make_log(cluster, log_name)
    c = cluster
    other_client = c.new_client("stale-guy")
    stale = ZLog(other_client, log_name)
    c.sim.run_until_complete(other_client.do(stale.open()))
    c.do(log.append("a"))
    # Recovery bumps the epoch; the stale client's next append must
    # refresh and land (the retry loop in ZLog.append).
    c.do(recover_log(log))
    proc = other_client.do(stale.append("from-stale"))
    pos = c.sim.run_until_complete(proc)
    assert c.do(log.read(pos))["data"] == "from-stale"


def test_recovery_resumes_past_max_written(cluster):
    log = make_log(cluster, "resume")
    c = cluster
    for i in range(7):
        c.do(log.append(i))
    _, new_tail = c.do(recover_log(log))
    assert new_tail == 7
    pos = c.do(log.append("post-recovery"))
    assert pos == 7


def test_sequencer_failover_never_duplicates_acked_entries():
    """Cap-holder death loses the volatile tail; appends still land on
    unique positions because write-once collisions bounce the writer."""
    c = MalacologyCluster.build(osds=4, mdss=1, seed=42)
    shared = SharedResourceInterface(c.admin)
    c.do(shared.set_lease_policy("best-effort"))
    log_name = "failover"
    log = make_log(c, log_name)
    doomed_client = c.new_client("doomed-appender")
    doomed = ZLog(doomed_client, log_name)
    c.sim.run_until_complete(doomed_client.do(doomed.open()))
    # The doomed client appends (and caches the sequencer cap)...
    proc = doomed_client.do(doomed.append("theirs"))
    c.sim.run_until_complete(proc)
    doomed_client.crash()
    # ... then dies holding the cap.  A fresh appender must still make
    # progress, and the acked entry must survive.
    for i in range(3):
        pos = c.do(log.append(f"mine-{i}"))
        entry = c.do(log.read(pos))
        assert entry["data"] == f"mine-{i}"
    assert c.do(log.read(0))["data"] == "theirs"


def test_log_backed_dict_replicas_converge(cluster):
    log_name = "kvlog"
    make_log(cluster, log_name)
    c = cluster
    writer_client = c.new_client("kv-writer")
    reader_client = c.new_client("kv-reader")
    wlog, rlog = ZLog(writer_client, log_name), ZLog(reader_client,
                                                     log_name)
    c.sim.run_until_complete(writer_client.do(wlog.open()))
    c.sim.run_until_complete(reader_client.do(rlog.open()))
    writer, reader = TransactionalTable(wlog), TransactionalTable(rlog)

    c.sim.run_until_complete(writer_client.do(writer.blind_put("x", 1)))
    c.sim.run_until_complete(writer_client.do(writer.blind_put("y", 2)))
    c.sim.run_until_complete(writer_client.do(writer.delete("x")))

    snap = c.sim.run_until_complete(reader_client.do(reader.snapshot()))
    assert snap == {"y": 2}
    with pytest.raises(NotFound):
        c.sim.run_until_complete(reader_client.do(reader.get("x")))
