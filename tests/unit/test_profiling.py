"""Unit tests: profiler planes, Perfetto export, results stamping."""

import json
import os
import sys

from repro.profiling import (
    SimProfiler,
    chrome_trace,
    install_profiler,
    peak_rss_bytes,
    write_chrome_trace,
)
from repro.errors import NotFound
from repro.msg import Daemon
from repro.sim import FixedLatency, Network, Simulator
from repro.sim.event import Timeout
from repro.telemetry import TraceCollector

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                         os.pardir, "benchmarks")


# ----------------------------------------------------------------------
# Installation and opt-in
# ----------------------------------------------------------------------
def test_profiler_off_by_default():
    sim = Simulator(seed=1)
    assert sim.profiler is None
    assert sim.wall_profiler is None


def test_install_is_idempotent():
    sim = Simulator(seed=1)
    first = install_profiler(sim)
    wall = sim.wall_profiler
    assert isinstance(first, SimProfiler) and wall is not None
    assert install_profiler(sim) is first
    assert sim.wall_profiler is wall


def test_install_without_wall_plane():
    sim = Simulator(seed=1)
    install_profiler(sim, wall=False)
    assert sim.profiler is not None
    assert sim.wall_profiler is None


# ----------------------------------------------------------------------
# Simulation plane
# ----------------------------------------------------------------------
def test_event_counts_and_high_water_marks():
    sim = Simulator(seed=1)
    prof = install_profiler(sim, wall=False)
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert prof.events_dispatched == 10
    # All ten fire at t=1.0: the ready batch is the full ten; the
    # queue depth seen at the first dispatch is the other nine.
    assert prof.ready_hwm == 10
    assert prof.queue_hwm == 9
    assert prof.event_rate_sim() == 10.0


def test_cancelled_events_counted_separately():
    sim = Simulator(seed=1)
    prof = install_profiler(sim, wall=False)
    call = sim.schedule(1.0, lambda: None)
    call.cancel()
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert prof.events_dispatched == 1
    assert prof.events_cancelled == 1


def test_run_until_complete_also_profiles():
    sim = Simulator(seed=1)
    prof = install_profiler(sim, wall=False)

    def body():
        yield Timeout(1.0)
        yield Timeout(1.0)
        return "done"

    proc = sim.spawn(body(), name="p")
    assert sim.run_until_complete(proc) == "done"
    assert prof.events_dispatched >= 3


def test_queue_samples_tape_is_deterministic():
    def tape(seed):
        sim = Simulator(seed=seed)
        prof = install_profiler(sim, wall=False)
        prof.SAMPLE_EVERY = SimProfiler.SAMPLE_EVERY

        def ping():
            for _ in range(600):
                yield Timeout(0.01)

        sim.spawn(ping(), name="ping")
        sim.run()
        return list(prof.queue_samples)

    first, second = tape(7), tape(7)
    assert first == second
    assert first  # 600 steps -> >= 1200 events -> sampled


def test_handler_stats_come_from_rpc_telemetry():
    sim = Simulator(seed=1)
    install_profiler(sim, wall=False)
    net = Network(sim, latency=FixedLatency(0.001))
    osd, mds, client = (Daemon(sim, net, n) for n in ("osd0", "mds0", "c"))

    def slow(src, payload):
        yield Timeout(2.0)
        raise NotFound("gone")

    osd.register_handler("osd_op", lambda src, payload: "ok")
    mds.register_handler("mds_req", slow)
    futs = [client.call("osd0", "osd_op"), client.call("osd0", "osd_op"),
            client.call("mds0", "mds_req")]
    sim.run()
    assert [f.failed for f in futs] == [False, False, True]
    full = client.admin_command("profile.dump", {"scope": "cluster"})
    stats = full["handler_stats"]
    assert stats["osd0:osd_op"] == {"count": 2, "sim_time": 0.0,
                                    "errors": 0}
    assert stats["mds0:mds_req"] == {"count": 1, "sim_time": 2.0,
                                     "errors": 1}
    assert osd.admin_command("profile.dump")["handler_stats"] == {
        "osd0:osd_op": stats["osd0:osd_op"]}
    top = full["top_sim_time"][0]
    assert (top["daemon"], top["method"]) == ("mds0", "mds_req")
    status = osd.admin_command("profile.status")
    assert status["handler_events"] == 2
    assert status["handler_sim_time"] == 0.0
    # The table follows telemetry's lifecycle: a crash clears it.
    osd.crash()
    assert osd.admin_command("profile.dump")["handler_stats"] == {}


def test_reset_clears_every_plane():
    sim = Simulator(seed=1)
    prof = install_profiler(sim, wall=False)
    sim.schedule(1.0, lambda: None)
    sim.run()
    prof.reset()
    assert prof.events_dispatched == 0
    assert prof.queue_samples == []


# ----------------------------------------------------------------------
# Host wall-clock plane
# ----------------------------------------------------------------------
def test_wall_plane_attributes_process_steps():
    sim = Simulator(seed=1)
    install_profiler(sim)

    def body():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(body(), name="osd0:osd_op")
    sim.run()
    wall = sim.wall_profiler
    stats = wall.stats()
    key = "dispatch:process:osd0:osd_op"
    assert key in stats
    assert stats[key]["count"] >= 2
    assert stats[key]["wall_ns"] > 0
    assert wall.total_ns() > 0


def test_wall_plane_keys_a_deadline_by_the_callback_it_fires():
    sim = Simulator(seed=1)
    prof = install_profiler(sim)
    net = Network(sim, latency=FixedLatency(0.001))
    client = Daemon(sim, net, "client")
    Daemon(sim, net, "server").crash()  # every call to it expires
    client.call("server", "ping", timeout=2.0)
    client.call("server", "ping", timeout=2.0)
    answered = sim.deadline(2.0, lambda: None)
    assert sim.pending() == 5  # two sends, three deadlines
    assert prof.status()["queue_depth"] == 5
    sim.run()
    answered.cancel()  # already fired: no effect
    stats = sim.wall_profiler.stats()
    assert stats["dispatch:callback:Daemon._expire"]["count"] == 2
    lost = sim.deadline(1.0, lambda: None)
    lost.cancel()  # the lane's head leaves; its heap entry wakes idle
    sim.run()
    stats = sim.wall_profiler.stats()
    assert stats["dispatch:callback:cancelled deadline"]["count"] == 1
    assert not any("DeadlineLane" in key for key in stats)


def test_wall_hotspots_ranked_and_shared():
    sim = Simulator(seed=1)
    install_profiler(sim)
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    sim.run()
    wall = sim.wall_profiler
    hot = wall.hotspots(5)
    assert hot
    assert [h["wall_ns"] for h in hot] == sorted(
        (h["wall_ns"] for h in hot), reverse=True)
    dispatch_shares = [h["share"] for h in hot if h["plane"] == "dispatch"]
    assert all(0.0 <= s <= 1.0 for s in dispatch_shares)


def test_collapsed_stack_dump_is_flamegraph_shaped():
    sim = Simulator(seed=1)
    install_profiler(sim)

    def body():
        yield Timeout(1.0)

    sim.spawn(body(), name="mds0:mds req")  # space must be sanitized
    sim.run()
    dump = sim.wall_profiler.collapsed_stacks()
    assert dump
    for line in dump.splitlines():
        frames, value = line.rsplit(" ", 1)
        assert frames.startswith("kernel;")
        assert len(frames.split(";")) >= 3
        assert " " not in frames
        assert int(value) >= 0


def test_wall_dump_shape_and_reset():
    sim = Simulator(seed=1)
    install_profiler(sim)
    sim.schedule(1.0, lambda: None)
    sim.run()
    wall = sim.wall_profiler
    doc = wall.dump()
    assert doc["elapsed_ns"] > 0
    assert 0.0 <= doc["attributed_share"] <= 1.0
    assert doc["hotspots"]
    wall.reset()
    assert wall.stats() == {}


def test_peak_rss_is_positive():
    assert peak_rss_bytes() > 0


# ----------------------------------------------------------------------
# Perfetto export
# ----------------------------------------------------------------------
def _traced_sim():
    sim = Simulator(seed=1)
    install_profiler(sim, wall=False)
    collector = TraceCollector.of(sim)
    ctx = collector.begin_trace("zlog.append", daemon="client")
    child = collector.start_span("osd_op", daemon="osd0",
                                 trace_id=ctx.trace_id,
                                 parent_id=ctx.span_id, src="client",
                                 kind="request")
    sim.schedule(1.0, lambda: None)
    sim.run()
    collector.finish(child.span_id)
    collector.finish(ctx.span_id)
    # One deliberately unfinished span: must be skipped, not exported.
    collector.start_span("orphan", daemon="osd1",
                         trace_id=ctx.trace_id, parent_id=ctx.span_id)
    return sim


def test_chrome_trace_document_shape():
    sim = _traced_sim()
    doc = chrome_trace(sim)
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["open_spans_skipped"] == 1
    assert doc["otherData"]["kernel"]["events_dispatched"] == 1
    phases = {e["ph"] for e in events}
    assert "M" in phases and "X" in phases
    spans = [e for e in events if e["ph"] == "X"]
    assert {s["name"] for s in spans} == {"zlog.append", "osd_op"}
    for span in spans:
        assert span["dur"] >= 0
        assert span["ts"] >= 0
        assert isinstance(span["pid"], int)
    # Process-name metadata names every daemon plus the kernel.
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"kernel", "client", "osd0"} <= names
    child = next(s for s in spans if s["name"] == "osd_op")
    assert child["args"]["parent_id"] is not None
    assert child["args"]["src"] == "client"


def test_write_chrome_trace_round_trips(tmp_path):
    sim = _traced_sim()
    path = write_chrome_trace(sim, str(tmp_path / "trace.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    assert all("ph" in e for e in doc["traceEvents"])


def test_chrome_trace_without_collector_or_profiler():
    sim = Simulator(seed=1)
    doc = chrome_trace(sim)
    assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
    assert "kernel" not in doc["otherData"]


# ----------------------------------------------------------------------
# Results stamping (bench_util)
# ----------------------------------------------------------------------
def test_emit_json_stamps_schema_and_git_sha(tmp_path):
    sys.path.insert(0, BENCH_DIR)
    try:
        import bench_util
    finally:
        sys.path.pop(0)
    path = bench_util.emit_json("stamp_probe", {"value": 1},
                                path=str(tmp_path / "probe.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == bench_util.RESULTS_SCHEMA_VERSION
    assert doc["benchmark"] == "stamp_probe"
    assert doc["value"] == 1
    sha = doc["git_sha"]
    assert sha == "unknown" or (len(sha) == 40
                                and all(c in "0123456789abcdef"
                                        for c in sha))
