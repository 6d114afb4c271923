"""A sequencer run's retained memory does not grow with its op count.

Fig. 6's cached-capability sequencer serves about 20k ops per simulated
second from client memory.  Each op leaves a position in the client's
``seq_trace`` and a latency in its retained ``seq.next`` tracker; both
must stay a few bytes per op, or a benchmark-length run holds hundreds
of MiB.  tracemalloc counts Python allocations exactly, so the bound
holds on any host without reading the process's RSS.
"""

import gc
import tracemalloc

from repro.core import MalacologyCluster
from repro.workloads import LeaseContentionWorkload

#: Retained bytes per cached op.  A list of (time, position) tuples
#: and a list of float samples took about 155.
MAX_BYTES_PER_OP = 32


def test_cached_sequencer_ops_retain_at_most_32_bytes_each():
    cluster = MalacologyCluster.build(osds=3, mdss=1, seed=62)
    load = LeaseContentionWorkload(cluster, clients=2)
    load.setup("quota", quota=1000, max_hold=0.25)
    load.start()
    cluster.run(0.5)  # past the first grants
    gc.collect()
    ops_before = load.total_ops()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cluster.run(12.5)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    load.stop()
    ops = load.total_ops() - ops_before
    assert ops > 240_000
    assert retained / ops <= MAX_BYTES_PER_OP, (
        f"{retained / ops:.1f} bytes retained per op over {ops} ops")
    traces = load.traces()
    assert sum(len(trace) for trace in traces) == load.total_ops()
    positions = sorted(pos for trace in traces for _, pos in trace)
    assert positions == list(range(len(positions)))
