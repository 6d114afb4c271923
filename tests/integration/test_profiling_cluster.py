"""Integration: profiling on a live cluster.

Schedule identity — a profiled run's network tape is byte-identical to
an unprofiled one — is pinned with every other observer plane in
``test_observer_transparency.py``; this file covers what the profiler
reports.
"""

import json

from repro.core import MalacologyCluster
from repro.mgr.prometheus import parse_prometheus_text


def _profiled_cluster():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=4242,
                                profile=True)
    client = c.new_client("load")

    def work():
        yield from client.fs_mkdir("/d")
        for i in range(15):
            yield from client.fs_create(f"/d/f{i}")
        for i in range(10):
            yield from client.rados_write_full("data", f"obj{i}",
                                               bytes([i]) * 64)

    c.sim.run_until_complete(client.do(work()))
    c.run(10.0)
    return c


def test_profile_admin_commands_on_and_off():
    off = MalacologyCluster.build(osds=2, mdss=1, seed=9, profile=False)
    status = off.profile_status()
    assert status == {"daemon": "admin", "enabled": False,
                      "wall_enabled": False}
    assert off.profile_dump()["enabled"] is False
    # Every daemon answers, not just the admin client.
    assert off.mons[0].admin_command("profile.status")["enabled"] is False

    cluster = _profiled_cluster()
    status = cluster.profile_status()
    assert status["enabled"] and status["wall_enabled"]
    assert status["kernel"]["events_dispatched"] > 0
    assert status["kernel"]["queue_hwm"] > 0
    # Daemon-scoped dump carries only that daemon's handlers.
    mds_dump = cluster.mdss[0].admin_command("profile.dump")
    assert mds_dump["handler_stats"]
    assert all(k.startswith("mds0:") for k in mds_dump["handler_stats"])
    # Cluster scope widens to every daemon, the wall plane, and the
    # flamegraph dump.
    full = cluster.profile_dump(collapsed=True)
    daemons = {k.split(":")[0] for k in full["handler_stats"]}
    assert {"mds0", "mon0"} <= daemons
    assert full["top_sim_time"]
    assert full["wall"]["hotspots"]
    assert full["collapsed_stacks"].startswith("kernel;")
    # In-band RPC surface answers too.
    fut = cluster.admin.call("mds0", "profile.status")
    got = cluster.sim.run_until_complete(fut)
    assert got["daemon"] == "mds0" and got["enabled"]


def test_prometheus_export_carries_kernel_gauges_and_handler_latency():
    c = MalacologyCluster.build(osds=2, mdss=1, seed=11, profile=True,
                                mgr=True)
    client = c.new_client("load")

    def work():
        yield from client.fs_mkdir("/p")
        for i in range(5):
            yield from client.fs_create(f"/p/f{i}")

    c.sim.run_until_complete(client.do(work()))
    c.run(8.0)  # several scrape periods
    text = c.mgr.metrics_export()
    samples = parse_prometheus_text(text)
    by_name = {}
    for s in samples:
        by_name.setdefault((s.labels.get("daemon"),
                            s.labels.get("name")), s.value)
    by_metric = {(s.metric, s.labels.get("daemon"), s.labels.get("name")):
                 s.value for s in samples}
    assert by_name[("kernel", "kernel.events")] > 0
    assert by_name[("kernel", "kernel.queue_hwm")] > 0
    assert ("kernel", "kernel.event_rate_sim") in by_name
    assert ("kernel", "kernel.ready_hwm") in by_name
    # Handler activity rides the mgr's ordinary scrapes as the same
    # rpc.<method> telemetry profile.dump reads: one datum, one home.
    mds_req = c.mdss[0].admin_command("profile.dump")[
        "handler_stats"]["mds0:mds_req"]
    assert mds_req["count"] >= 6 and mds_req["sim_time"] > 0
    assert by_metric[("repro_latency_count", "mds0", "rpc.mds_req")] > 0
    assert by_metric[("repro_latency_sum", "mds0", "rpc.mds_req")] > 0
    assert ("mds0", "profile.handler_events") not in by_name
    # An unprofiled mgr cluster exports no kernel pseudo-target.
    off = MalacologyCluster.build(osds=2, mdss=1, seed=11, mgr=True,
                                  profile=False)
    off.run(8.0)
    off_samples = parse_prometheus_text(off.mgr.metrics_export())
    assert not any(s.labels.get("daemon") == "kernel"
                   for s in off_samples)


def test_trace_export_from_live_cluster(tmp_path):
    c = MalacologyCluster.build(osds=2, mdss=1, seed=5, profile=True)
    client = c.new_client("app")

    def op():
        yield from client.fs_mkdir("/t")
        yield from client.fs_create("/t/file")

    c.sim.run_until_complete(
        client.do(client.traced(op(), "fs.setup"), name="traced"))
    c.run(2.0)
    path = c.write_trace(str(tmp_path / "trace.json"))
    with open(path) as fh:
        doc = json.load(fh)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert any(s["name"] == "fs.setup" for s in spans)
    assert any(s["name"] == "mds_req" for s in spans)
    assert counters, "kernel queue-depth counter track missing"
    assert {m["args"]["name"] for m in metas} >= {"kernel", "app", "mds0"}
    # Spans are causally parented into one tree per trace.
    roots = [s for s in spans if "parent_id" not in s["args"]]
    assert roots and all(s["args"]["trace_id"] == roots[0]["args"]["trace_id"]
                         for s in spans)
