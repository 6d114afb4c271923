"""Integration tests: sequencer total order under every lease policy.

The core CORFU requirement that the Shared Resource machinery must
never break: positions handed out by the sequencer are unique and
gapless, no matter which policy governs capability movement or how
messages reorder (and even under injected message loss, where the
revoke-deadline reclaim path kicks in).
"""

import pytest

from repro.core import MalacologyCluster, SharedResourceInterface
from repro.sim import FailureInjector

POLICIES = [
    ("round-trip", {}),
    ("best-effort", {}),
    ("delay", {"min_hold": 0.05}),
    ("quota", {"quota": 25, "max_hold": 0.25}),
]


def drive(cluster, path, clients, per_client):
    def worker(client):
        out = []
        for _ in range(per_client):
            pos = yield from client.seq_next(path)
            out.append(pos)
        return out

    procs = [cl.do(worker(cl)) for cl in clients]
    return [cluster.sim.run_until_complete(p) for p in procs]


@pytest.mark.parametrize("mode,kwargs", POLICIES)
def test_total_order_under_policy(mode, kwargs):
    c = MalacologyCluster.build(osds=3, mdss=1, seed=hash(mode) % 1000)
    c.do(SharedResourceInterface(c.admin).set_lease_policy(mode,
                                                           **kwargs))
    c.do(c.admin.fs_mkdir("/ord"))
    c.do(c.admin.fs_create("/ord/seq", file_type="sequencer"))
    clients = [c.new_client(f"cl{i}") for i in range(3)]
    results = drive(c, "/ord/seq", clients, 80)
    everything = sorted(p for r in results for p in r)
    assert everything == list(range(240))
    # Per-client sequences are strictly increasing (session order).
    for r in results:
        assert r == sorted(r)


def test_order_survives_background_message_loss():
    c = MalacologyCluster.build(osds=3, mdss=1, seed=99)
    c.do(SharedResourceInterface(c.admin).set_lease_policy(
        "quota", quota=20, max_hold=0.25))
    c.do(c.admin.fs_mkdir("/lossy"))
    c.do(c.admin.fs_create("/lossy/seq", file_type="sequencer"))
    injector = FailureInjector(c.sim, c.net)
    injector.set_loss("*", "*", 0.01)  # 1% background loss
    clients = [c.new_client(f"lossy{i}") for i in range(2)]
    results = drive(c, "/lossy/seq", clients, 60)
    everything = [p for r in results for p in r]
    # Loss may force revoke-deadline reclaims, which can re-issue lost
    # *unacknowledged* tail state — but a position must never be handed
    # to two clients (that is what the write-once storage would catch).
    assert len(set(everything)) == len(everything)
    injector.clear_loss()


def test_many_sequencers_are_independent():
    c = MalacologyCluster.build(osds=3, mdss=1, seed=101)
    c.do(SharedResourceInterface(c.admin).set_lease_policy("best-effort"))
    c.do(c.admin.fs_mkdir("/multi"))
    for i in range(3):
        c.do(c.admin.fs_create(f"/multi/s{i}", file_type="sequencer"))
    client = c.new_client("multi")

    def worker():
        out = {i: [] for i in range(3)}
        for round_no in range(10):
            for i in range(3):
                pos = yield from client.seq_next(f"/multi/s{i}")
                out[i].append(pos)
        return out

    result = c.sim.run_until_complete(client.do(worker()))
    for i in range(3):
        assert result[i] == list(range(10))  # each log counts alone
