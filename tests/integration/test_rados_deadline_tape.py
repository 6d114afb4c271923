"""Integration: a RADOS run whose RPC deadlines fire keeps its schedule.

A golden delivery tape, pinned like ``test_store_tiers``'s: the
(send count, sha256) of every network send, timestamps included, for a
short replicated-pool run through an OSD crash and a client-side
partition.  Deadlines expire (``Daemon._expire`` fails the caller),
clients refresh the map and retry, and the crash moves acting sets, so
the tape covers the kernel's deadline path and placement under a
changing map.  Any reordering of a deadline against other events at
the same instant, or any placement answer that differs, moves it.
"""

import hashlib

from repro.core import MalacologyCluster
from repro.msg.daemon import Daemon
from repro.rados.placement import locate
from repro.testing import record_sends

# Captured before deadlines left the event heap and placement was
# memoized per map.
GOLDEN_SENDS = 784
GOLDEN_DIGEST = \
    "1eaecee4106802791f59210ba0e670a54f9b692c3a713f79eb45ea91548138c3"


def _run(monkeypatch):
    fired = []
    expire = Daemon._expire

    def counting(self, msg_id):
        live = msg_id in self._pending
        fired.append(live)
        expire(self, msg_id)

    monkeypatch.setattr(Daemon, "_expire", counting)
    c = MalacologyCluster.build(osds=4, mdss=0, seed=4545,
                                pools={"data": {"size": 2, "pg_num": 16}})
    tape = record_sends(c.net)
    client = c.new_client("load")
    oids = [f"obj{i}" for i in range(16)]
    osdmap = c.mons[0].store.osdmap
    before = {oid: locate(osdmap, "data", oid)[1] for oid in oids}
    victim = next(o for o in c.osds if o.name == before[oids[0]][0])
    cut = next(o for o in c.osds if o is not victim)

    def work():
        for rnd in range(6):
            for i, oid in enumerate(oids):
                yield from client.rados_write_full(
                    "data", oid, bytes([rnd, i]) * 32)
                got = yield from client.rados_read("data", oid)
                assert got == bytes([rnd, i]) * 32

    proc = client.do(work())
    c.run(0.2)
    c.net.partition("load", cut.name)
    victim.crash()
    c.run(6.0)
    c.net.heal("load", cut.name)
    c.sim.run_until_complete(proc)
    c.run(5.0)
    after = c.mons[0].store.osdmap
    moved = [oid for oid in oids
             if locate(after, "data", oid)[1] != before[oid]]
    return tape, fired, moved


def test_a_rados_run_with_expiring_deadlines_replays_its_tape(monkeypatch):
    tape, fired, moved = _run(monkeypatch)
    assert any(fired), "no deadline expired on a live call"
    assert moved, "the crash moved no acting set"
    h = hashlib.sha256()
    for entry in tape:
        h.update(repr(entry).encode())
    assert (len(tape), h.hexdigest()) == (GOLDEN_SENDS, GOLDEN_DIGEST)
