#!/usr/bin/env python3
"""Shared-log example: ZLog append/read, sealing, and a replicated map.

Demonstrates the ZLog service of section 5.2 end to end:

* appends obtain positions from the sequencer inode and land on
  epoch-fenced, write-once stripe objects;
* a stale client (fenced by a seal) recovers transparently;
* seal-based sequencer recovery recomputes the tail from storage;
* a Tango-style replicated dictionary materializes the same state on
  two independent clients by replaying the log.

Run:  python examples/zlog_kvstore.py
"""

from repro.core import MalacologyCluster
from repro.zlog import StripeLayout, TransactionalTable, ZLog, recover_log


def main() -> None:
    print("booting cluster...")
    cluster = MalacologyCluster.build(osds=4, mdss=1, seed=17)

    # ------------------------------------------------------------------
    # Create a log and append from two clients.
    # ------------------------------------------------------------------
    log = ZLog(cluster.admin, "events", layout=StripeLayout("events",
                                                            width=4))
    cluster.do(log.create())

    other_client = cluster.new_client("appender-2")
    other_log = ZLog(other_client, "events")
    cluster.sim.run_until_complete(other_client.do(other_log.open()))

    p0 = cluster.do(log.append({"user": "alice", "action": "login"}))
    proc = other_client.do(other_log.append({"user": "bob",
                                             "action": "login"}))
    p1 = cluster.sim.run_until_complete(proc)
    print(f"appends landed at positions {p0} and {p1} "
          f"(epoch {log.epoch})")
    print(f"read(0) -> {cluster.do(log.read(0))['data']}")

    # ------------------------------------------------------------------
    # Seal-based recovery: fence, recompute tail, resume.
    # ------------------------------------------------------------------
    epoch, tail = cluster.do(recover_log(log))
    print(f"recovery: new epoch {epoch}, sequencer resumes at {tail}")
    p2 = cluster.do(log.append({"user": "carol", "action": "login"}))
    print(f"post-recovery append at position {p2}")

    # The other client still holds the old epoch; its next append gets
    # fenced (ESTALE), refreshes, and lands anyway.
    proc = other_client.do(other_log.append({"user": "bob",
                                             "action": "logout"}))
    p3 = cluster.sim.run_until_complete(proc)
    print(f"stale client transparently recovered; append at {p3}")

    # ------------------------------------------------------------------
    # A replicated dictionary over the log (Tango-style).
    # ------------------------------------------------------------------
    kv_log = ZLog(cluster.admin, "kv", layout=StripeLayout("kv", width=4))
    cluster.do(kv_log.create())
    writer = TransactionalTable(kv_log)
    cluster.do(writer.blind_put("threshold", 10))
    cluster.do(writer.blind_put("mode", "steady"))
    cluster.do(writer.delete("threshold"))

    reader_client = cluster.new_client("kv-reader")
    reader_log = ZLog(reader_client, "kv")
    cluster.sim.run_until_complete(reader_client.do(reader_log.open()))
    reader = TransactionalTable(reader_log)
    snapshot = cluster.sim.run_until_complete(
        reader_client.do(reader.snapshot()))
    print(f"replica materialized from the log: {snapshot}")
    assert snapshot == {"mode": "steady"}
    print("done.")


if __name__ == "__main__":
    main()
