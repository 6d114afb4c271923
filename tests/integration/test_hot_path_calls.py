"""A cached sequencer op costs a fixed, small number of Python calls.

Fig. 6's quota lease serves most sequencer positions from a cached
capability, so a benchmark run's host time is the kernel's process
step, the client's cached branch and its latency tracker, once per
op.  Wall time is too noisy to gate; the number of Python ``call``
events per op under ``sys.setprofile`` is exact and seed-stable, so it
is gated exact-or-better: lower the bound when the path gets cheaper.
"""

import sys

from repro.core import MalacologyCluster
from repro.workloads import LeaseContentionWorkload

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
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        cluster.run(2.5)
    finally:
        sys.setprofile(None)
    load.stop()
    ops = load.total_ops() - ops_before
    assert ops > 40_000
    assert calls / ops <= MAX_CALLS_PER_OP, (
        f"{calls / ops:.3f} Python calls per cached op "
        f"({calls} calls, {ops} ops)")
