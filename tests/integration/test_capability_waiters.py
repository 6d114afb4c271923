"""Integration tests: every queued capability waiter gets an answer.

The MDS keeps one table per inode — who holds the exclusive cap and
who waits for it, in order — and each waiter's grant future lives in
that table.  Two ways a waiter used to be stranded until the client's
``MDS_TIMEOUT``:

* two concurrent server-side recalls of one inode (``ftype_exec``
  against a delegated sequencer) — the second recall's future replaced
  the first's, whose handler then waited forever;
* unlinking an inode while a client is queued in ``open`` — the queue
  entry went, but its future was never failed.
"""

from repro.core import MalacologyCluster, SharedResourceInterface
from repro.errors import NotFound

PATH = "/w/seq"
MIN_HOLD = 0.5


def _cluster():
    c = MalacologyCluster.build(osds=3, mdss=1, seed=5)
    c.do(SharedResourceInterface(c.admin).set_lease_policy(
        "delay", min_hold=MIN_HOLD))
    c.do(c.admin.fs_mkdir("/w"))
    c.do(c.admin.fs_create(PATH, file_type="sequencer"))
    return c


def _hold_cap(c, name):
    """A client takes the cap on PATH (one cached ``seq_next``)."""
    holder = c.new_client(name)
    c.sim.run_until_complete(holder.do(holder.seq_next(PATH)))
    ino = c.do(c.admin.fs_stat(PATH))["ino"]
    assert c.mdss[0].locker.holder_of(ino).client == name


def _timed(c, client, gen):
    def body():
        started = c.sim.now
        try:
            value = yield from gen
        except NotFound as exc:
            value = exc
        return value, c.sim.now - started
    return client.do(body())


def _live_requests(mds):
    return [p for p in mds._procs
            if not p.done and p.name == f"{mds.name}:mds_req"]


def test_concurrent_recalls_of_one_inode_both_finish():
    c = _cluster()
    _hold_cap(c, "a")
    readers = [c.new_client(n) for n in ("b", "d")]
    procs = [_timed(c, r, r.fs_exec(PATH, "read")) for r in readers]
    results = [c.sim.run_until_complete(p, limit=c.sim.now + 60.0)
               for p in procs]
    for value, took in results:
        assert value == 1          # the holder's one position merged back
        assert took < 1.0, f"recall took {took:.2f}s (min_hold {MIN_HOLD}s)"
    assert _live_requests(c.mdss[0]) == []


def test_unlink_fails_a_queued_opener_promptly():
    c = _cluster()
    _hold_cap(c, "a")
    waiter = c.new_client("b")
    proc = _timed(c, waiter, waiter.fs_request("open", PATH))
    opened_at = c.sim.now
    c.sim.run(until=opened_at + 0.01)   # b is queued behind a
    mds = c.mdss[0]
    assert len(_live_requests(mds)) == 1
    c.do(c.admin.fs_unlink(PATH))
    unlinked_at = c.sim.now
    error, took = c.sim.run_until_complete(proc, limit=c.sim.now + 60.0)
    assert isinstance(error, NotFound)
    # b's answer beats the unlink's own reply, which waits on RADOS.
    assert opened_at + took <= unlinked_at
    assert _live_requests(mds) == []
