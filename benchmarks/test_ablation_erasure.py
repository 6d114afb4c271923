"""Ablation: erasure coding vs replication (the §4.4 durability menu).

RADOS protects data "using erasure coding, replication, and scrubbing";
the operator's choice trades storage overhead against I/O cost.  This
ablation measures both for 2x/3x replication vs a k=2,m=1 EC profile
(all tolerate at least one failure; 3x and EC degrade differently):

* storage overhead = bytes stored cluster-wide / logical bytes;
* write latency = acked write_full round trip;
* read latency = healthy-path read (EC pays shard gathering).
"""

from bench_util import emit, table

from repro.core import MalacologyCluster
from repro.telemetry.counters import LatencyTracker

OBJECT_BYTES = 16 * 1024
OBJECTS = 40


def run_profile(pool_cfg, seed=161):
    cluster = MalacologyCluster.build(
        osds=4, mdss=0, seed=seed,
        pools={"bench": dict(pool_cfg, pg_num=16)})
    cluster.run(2.0)
    admin = cluster.admin
    blob = b"d" * OBJECT_BYTES
    write_lat, read_lat = LatencyTracker(), LatencyTracker()
    for i in range(OBJECTS):
        t0 = cluster.sim.now
        cluster.do(admin.rados_write_full("bench", f"obj-{i}", blob))
        write_lat.observe(cluster.sim.now - t0)
        t0 = cluster.sim.now
        cluster.do(admin.rados_read("bench", f"obj-{i}"))
        read_lat.observe(cluster.sim.now - t0)
    stored = 0
    for osd in cluster.osds:
        for pg in osd.pgs.values():
            stored += sum(obj.size for obj in pg.values())
        stored += sum(len(e["shard"]) for e in osd.ec_shards.values())
    logical = OBJECT_BYTES * OBJECTS
    return {
        "overhead": stored / logical,
        "write_us": write_lat.mean * 1e6,
        "read_us": read_lat.mean * 1e6,
    }


def run_experiment():
    return {
        "replicated 2x": run_profile({"size": 2}),
        "replicated 3x": run_profile({"size": 3}),
        "EC k=2 m=1": run_profile({"ec": {"k": 2, "m": 1}}),
    }


def test_ablation_erasure(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [(name, f"{r['overhead']:.2f}x", f"{r['write_us']:.0f}",
             f"{r['read_us']:.0f}")
            for name, r in results.items()]
    lines = table(["profile", "storage overhead", "write latency (us)",
                   "read latency (us)"], rows)
    lines.append("")
    lines.append("EC buys storage (1.5x vs 2-3x) at extra read-path "
                 "cost (shard gathering)")
    emit("ablation_erasure", lines)

    r2 = results["replicated 2x"]
    r3 = results["replicated 3x"]
    ec = results["EC k=2 m=1"]
    # Storage overheads are the headline trade-off.
    assert 1.95 <= r2["overhead"] <= 2.05
    assert 2.95 <= r3["overhead"] <= 3.05
    assert 1.45 <= ec["overhead"] <= 1.55
    # EC reads pay shard gathering; replicated reads are primary-local.
    assert ec["read_us"] > 1.5 * r2["read_us"]
    # Extra replicas cost write latency.
    assert r3["write_us"] > r2["write_us"]
