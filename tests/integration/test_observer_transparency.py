"""Integration: every observer plane leaves the schedule alone.

One contract for all of them — sanitizers, both profiler planes, the
mgr (while health is steady: it writes to the cluster log only on a
health transition), the changelog, span tracing and an armed chaos
engine with nothing scheduled: the network tape of everything but the
observer's own daemons (every message, timestamps included) is
byte-identical to a bare run of the same seed.  Checked for each plane
alone and for all of them at once, on one workload that crosses the
monitors, the MDS, the OSDs, a sequencer and ZLog.
"""

import pytest

from repro.chaos import NemesisEngine, NemesisSchedule
from repro.core import MalacologyCluster
from repro.mgr.health import HEALTH_OK, chaos_nemesis_active
from repro.testing import record_sends
from repro.zlog import ZLog

PLANES = ("sanitize", "profile", "mgr", "changelog", "spans", "chaos")


def _run(planes):
    c = MalacologyCluster.build(
        osds=3, mdss=1, mons=3, seed=4242,
        sanitize="sanitize" in planes, profile="profile" in planes,
        mgr="mgr" in planes, changelog="changelog" in planes)
    tape = record_sends(c.net, ignore=("mgr", "chlog"))
    engine = None
    if "chaos" in planes:
        engine = NemesisEngine(c)
        engine.arm(NemesisSchedule(name="empty", duration=5.0))
        if c.mgr is not None:
            # An armed engine is a health transition by design: the mgr
            # logs CHAOS_NEMESIS_ACTIVE through the monitors.  Mute that
            # one check so health stays steady under both planes.
            c.mgr.checks = [k for k in c.mgr.checks
                            if k is not chaos_nemesis_active]
    client = c.new_client("load")
    log = ZLog(client, "tape")

    def work():
        yield from client.fs_mkdir("/d")
        for i in range(15):
            yield from client.fs_create(f"/d/f{i}")
        yield from client.fs_create("/d/seq", file_type="sequencer")
        for _ in range(5):
            yield from client.seq_next("/d/seq")
        for i in range(8):
            yield from client.rados_write_full("data", f"obj{i}",
                                               bytes([i]) * 64)
        for i in range(8):
            got = yield from client.rados_read("data", f"obj{i}")
            assert got == bytes([i]) * 64
        yield from log.create()
        for i in range(6):
            pos = yield from log.append(f"entry{i}")
            assert (yield from log.read(pos))["data"] == f"entry{i}"

    op = client.traced(work(), "load") if "spans" in planes else work()
    c.sim.run_until_complete(client.do(op))
    c.run(10.0)
    if engine is not None:
        engine.finalize()
    c.run(2.0)
    return c, tape


@pytest.fixture(scope="module")
def bare_tape():
    c, tape = _run(())
    assert len(tape) > 300  # the workload exercised the cluster
    assert c.sim.sanitizers is None and c.sim.profiler is None
    assert c.sim.wall_profiler is None and c.sim.chaos is None
    return tape


@pytest.mark.parametrize("planes", [(p,) for p in PLANES] + [PLANES],
                         ids=lambda planes: "+".join(planes))
def test_observers_do_not_change_the_schedule(planes, bare_tape):
    c, tape = _run(planes)
    assert tape == bare_tape
    # ... while each plane actually observed the run.
    if "sanitize" in planes:
        assert c.sim.sanitizers.paxos._chosen
        assert c.sanitizer_report() == []
    if "profile" in planes:
        assert c.sim.profiler.events_dispatched > len(tape)
        assert c.sim.wall_profiler.total_ns() > 0
        assert c.profile_dump()["handler_stats"]
    if "mgr" in planes:
        assert c.mgr.scrape_count > 0
        assert c.health()["status"] == HEALTH_OK
    if "changelog" in planes:
        assert c.changelog_writer.perf.get("changelog.appended") > 0
    if "spans" in planes:
        assert c.sim.trace_collector.trace_ids()
    if "chaos" in planes:
        assert c.sim.chaos is not None
