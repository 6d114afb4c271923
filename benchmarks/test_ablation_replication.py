"""Ablation: replication factor vs shared-log append latency.

ZLog inherits RADOS's primary-copy replication: the primary acks an
append only after every replica acks.  Sweeping the pool size shows
the durability/latency trade-off the Durability interface exposes —
each extra replica adds (at least) one more replication round trip to
the append path.
"""

from bench_util import emit, table

from repro.core import MalacologyCluster
from repro.telemetry.counters import LatencyTracker
from repro.zlog import StripeLayout, ZLog

APPENDS = 150


def run_one(size, seed=151):
    cluster = MalacologyCluster.build(
        osds=4, mdss=1, seed=seed,
        pools={"metadata": {"size": 2, "pg_num": 32},
               "data": {"size": size, "pg_num": 32}})
    log = ZLog(cluster.admin, f"repl{size}",
               layout=StripeLayout(f"repl{size}", width=4))
    cluster.do(log.create())
    # Warm the sequencer cap so we measure the storage path, not the
    # first-acquire cost.
    cluster.do(log.append("warmup"))
    stats = LatencyTracker()
    for i in range(APPENDS):
        started = cluster.sim.now

        def one_append(payload=i):
            yield from log.append(payload)

        cluster.do(one_append())
        stats.observe(cluster.sim.now - started)
    return stats


def run_experiment():
    return {size: run_one(size) for size in (1, 2, 3)}


def test_ablation_replication(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [(size, f"{s.mean * 1e6:.0f}", f"{s.max * 1e6:.0f}")
            for size, s in results.items()]
    lines = table(["replication factor", "mean append latency (us)",
                   "max (us)"], rows)
    lines.append("")
    lines.append("each extra replica adds a replication round trip to "
                 "the acked append path")
    emit("ablation_replication", lines)

    means = [results[size].mean for size in (1, 2, 3)]
    # Latency grows with the replication factor...
    assert means[0] < means[1] < means[2]
    # ... by roughly a round trip per replica, not by multiples.
    assert means[2] < 3 * means[0]
