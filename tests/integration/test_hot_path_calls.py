"""Hot paths cost a fixed number of Python calls per op.

Fig. 6's quota lease serves most sequencer positions from a cached
capability, so a benchmark run's host time is the kernel's process
step, the client's cached branch and its latency tracker, once per
op.  A replicated RADOS read or write crosses the client, the
messenger, the kernel, placement and the primary's replication.  Wall
time is too noisy to gate; the number of Python ``call`` events per op
under ``sys.setprofile`` is exact and seed-stable, so it is gated
exact-or-better: lower the bound when the path gets cheaper.
"""

import sys

from repro.core import MalacologyCluster
from repro.objclass import loader
from repro.workloads import LeaseContentionWorkload


def _count_calls(run):
    """Python ``call`` events while ``run()`` executes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls

#: Python calls per cached op, measured at 10.365 (513,990 calls for
#: 49,590 ops).  A step through ``Process._wait_on``, the ``now``
#: property, a fresh ``Timeout`` per op and ``OnlineStats.add`` took
#: 18.42.
MAX_CALLS_PER_OP = 10.37


def test_a_cached_sequencer_op_makes_at_most_10_37_python_calls():
    cluster = MalacologyCluster.build(osds=3, mdss=1, seed=62)
    load = LeaseContentionWorkload(cluster, clients=2)
    load.setup("quota", quota=1000, max_hold=0.25)
    load.start()
    cluster.run(0.5)  # past the first grants
    ops_before = load.total_ops()
    calls = _count_calls(lambda: cluster.run(2.5))
    load.stop()
    ops = load.total_ops() - ops_before
    assert ops > 40_000
    assert calls / ops <= MAX_CALLS_PER_OP, (
        f"{calls / ops:.3f} Python calls per cached op "
        f"({calls} calls, {ops} ops)")


#: Python calls per replicated RADOS op (half 4 KiB ``write_full``,
#: half reads, size-2 pool), measured at 144.331 (577,323 calls for
#: 4,000 ops).  Ranking the OSDs' sha256 scores on every ``acting_set``
#: call, one heap entry per RPC deadline and up to three ``OSD.osdmap``
#: reads per message took 174.689 (698,755).
MAX_RADOS_CALLS_PER_OP = 144.34


def test_a_replicated_rados_op_makes_at_most_144_34_python_calls():
    cluster = MalacologyCluster.build(osds=3, mdss=0, seed=11,
                                      pools={"rep": {"size": 2,
                                                     "pg_num": 32}})
    client = cluster.new_client("load")
    oids = [f"o{i:03d}" for i in range(32)]
    blob = b"x" * 4096

    def prime():
        for oid in oids:
            yield from client.rados_write_full("rep", oid, blob)

    def work(ops):
        for i in range(ops):
            oid = oids[i % len(oids)]
            if i % 2:
                got = yield from client.rados_read("rep", oid)
                assert got == blob
            else:
                yield from client.rados_write_full("rep", oid, blob)

    cluster.sim.run_until_complete(client.do(prime()))
    ops = 4000
    proc = client.do(work(ops))
    calls = _count_calls(lambda: cluster.sim.run_until_complete(proc))
    assert calls / ops <= MAX_RADOS_CALLS_PER_OP, (
        f"{calls / ops:.3f} Python calls per RADOS op "
        f"({calls} calls, {ops} ops)")


#: One interface source, published as five versions to 20 OSDs below.
SOURCE = ("def ping(ctx, args):\n"
          "    return {'v': args.get('v'), 'gate': 'hot-path'}\n\n"
          "METHODS = {'ping': ping}\n")


def _propagate(cluster, versions, during=lambda run: run()):
    """Publish ``versions`` of SOURCE, each live on every OSD before
    the next; returns how many times an OSD made a version live."""
    live = []
    for osd in cluster.osds:
        osd.interface_live_hook = (
            lambda name, version, t: live.append(version))

    def run():
        for version in range(1, versions + 1):
            cluster.do(cluster.admin.rados_install_interface(
                "gate_iface", version, SOURCE))
            while live.count(version) < len(cluster.osds):
                cluster.run(0.05)

    during(run)
    return len(live)


def test_an_interface_source_compiles_once_per_cluster(monkeypatch):
    """Every OSD execs one shared code object: 1 compile, where
    compiling on every install took 100 (20 OSDs x 5 versions)."""
    compiled = []

    def counting(source, *args, **kwargs):
        compiled.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(loader, "compile", counting, raising=False)
    loader._compiled.cache_clear()
    cluster = MalacologyCluster.build(osds=20, mdss=0, seed=46)
    assert _propagate(cluster, 5) == 100
    assert compiled.count(SOURCE) == 1, (
        f"{compiled.count(SOURCE)} compiles of one interface source")


#: Python calls per "an OSD makes an interface version live" on the
#: cluster above, measured at 232.54 (23,254 calls for 100).  A peer
#: list rebuilt on every gossip and ping and two Python frames per
#: latency draw took 243.15 (24,315).
MAX_CALLS_PER_LIVE_VERSION = 232.55


def test_making_an_interface_version_live_makes_at_most_232_55_calls():
    cluster = MalacologyCluster.build(osds=20, mdss=0, seed=46)
    calls = 0

    def counted(run):
        nonlocal calls
        calls = _count_calls(run)

    lives = _propagate(cluster, 5, counted)
    assert lives == 100
    assert calls / lives <= MAX_CALLS_PER_LIVE_VERSION, (
        f"{calls / lives:.3f} Python calls per live interface version "
        f"({calls} calls, {lives} made live)")
