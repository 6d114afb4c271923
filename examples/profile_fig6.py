#!/usr/bin/env python3
"""Profile the canonical fig6 run and export a Perfetto trace.

Boots a cluster with the profiler enabled (``profile=True``), runs
the fig6 sequencer-contention workload plus a couple of
traced appends, then shows all three profiling planes:

* ``profile.status`` — kernel event counts, queue/ready high-water
  marks, per-daemon handler totals (deterministic, simulated time);
* the wall-clock plane — top host-time hotspots across the
  heapq + generator trampoline, and a flamegraph-ready collapsed
  stack dump;
* ``trace.json`` — the causal span trees plus the kernel queue-depth
  tape in Chrome trace-event format.  Open it at
  https://ui.perfetto.dev (or chrome://tracing).

Run:  PYTHONPATH=src python examples/profile_fig6.py [out.json]
"""

import sys

from repro.core import MalacologyCluster
from repro.workloads import LeaseContentionWorkload
from repro.zlog import ZLog


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "trace.json"
    print("booting profiled cluster (3 monitors, 3 OSDs, 1 MDS)...")
    cluster = MalacologyCluster.build(osds=3, mdss=1, seed=62,
                                      profile=True)

    # A few traced appends so the exported trace has span trees.
    client = cluster.new_client("app")
    log = ZLog(client, "trades")
    cluster.sim.run_until_complete(client.do(log.create(), name="create"))
    for i in range(3):
        proc = client.do(
            client.traced(log.append({"n": i}), f"append-{i}"),
            name=f"append-{i}")
        cluster.sim.run_until_complete(proc)

    # The canonical fig6 contention point (quota 1000, two clients).
    print("running fig6 contention workload (30 simulated seconds)...")
    workload = LeaseContentionWorkload(cluster, clients=2)
    workload.setup("quota", quota=1000, max_hold=0.25)
    workload.start()
    cluster.run(30.0)
    workload.stop()

    status = cluster.profile_status()
    kernel = status["kernel"]
    print("\n=== profile.status (simulation plane) ===")
    print(f"events dispatched   {kernel['events_dispatched']}")
    print(f"event rate (sim)    {kernel['event_rate_sim']:.0f}/s")
    print(f"queue high-water    {kernel['queue_hwm']}")
    print(f"ready-batch hwm     {kernel['ready_hwm']}")

    full = cluster.profile_dump(collapsed=True)
    print("\n=== busiest handlers (simulated time) ===")
    for h in full["top_sim_time"][:5]:
        print(f"  {h['daemon']:<8} {h['method']:<16} "
              f"count={h['count']:<6} sim_time={h['sim_time']:.3f}s")

    print("\n=== host wall-clock hotspots ===")
    for h in full["wall"]["hotspots"][:5]:
        print(f"  {h['kind']:<9} {h['name']:<24} "
              f"count={h['count']:<6} wall={h['wall_ns'] / 1e6:.1f}ms "
              f"allocs={h['alloc_blocks']}")
    stacks = full["collapsed_stacks"].splitlines()
    print(f"\ncollapsed stacks: {len(stacks)} frames "
          "(feed to flamegraph.pl / speedscope), e.g.")
    for line in stacks[:3]:
        print(f"  {line}")

    path = cluster.write_trace(out)
    print(f"\nwrote {path} — open at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
