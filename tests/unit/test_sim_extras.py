"""Unit tests: remaining simulator and cluster conveniences."""

import pytest

from repro.core import MalacologyCluster
from repro.errors import TimeoutError_
from repro.sim import Future, Simulator, Timeout


def test_timeout_future_fails_pending_only():
    sim = Simulator()
    fut = Future()
    sim.timeout_future(fut, 2.0, TimeoutError_("deadline"))
    sim.schedule(1.0, fut.resolve, "made-it")
    sim.run()
    assert fut.result() == "made-it"

    fut2 = Future()
    sim.timeout_future(fut2, 1.0, TimeoutError_("deadline"))
    sim.run()
    with pytest.raises(TimeoutError_):
        fut2.result()


def test_run_until_complete_respects_time_limit():
    sim = Simulator()

    def forever():
        while True:
            yield Timeout(1.0)

    proc = sim.spawn(forever())
    with pytest.raises(RuntimeError, match="time limit"):
        sim.run_until_complete(proc, limit=10.0)
    # The failed drive leaves the kernel usable: run() still pads the
    # clock to exactly ``until``.
    assert sim.now == 11.0
    assert sim.run(until=20.5) == 20.5
    assert sim.now == 20.5


def test_stop_halts_run_midway():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, seen.append, "b")
    sim.run()
    assert seen == ["a"]
    sim.run()  # resumes
    assert seen == ["a", "b"]


def test_stop_inside_bounded_run_still_returns_until():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, seen.append, "late")
    assert sim.run(until=10.0) == 10.0
    assert seen == []


def test_process_repr_and_double_cancel():
    sim = Simulator()

    def body():
        yield Timeout(1.0)

    proc = sim.spawn(body(), name="worker")
    assert "worker" in repr(proc)
    sim.run()
    proc.cancel()
    proc.cancel()  # idempotent on finished process
    assert proc.done


class TestClusterConveniences:
    @pytest.fixture(scope="class")
    def cluster(self):
        return MalacologyCluster.build(osds=3, mdss=2, seed=131)

    def test_mds_of_rank_lookup(self, cluster):
        assert cluster.mds_of_rank(1).rank == 1
        with pytest.raises(KeyError):
            cluster.mds_of_rank(99)

    def test_leader_monitor_found(self, cluster):
        leader = cluster.leader_monitor()
        assert leader.is_leader

    def test_new_client_names_are_unique(self, cluster):
        a = cluster.new_client()
        b = cluster.new_client()
        assert a.name != b.name

    def test_run_advances_simulated_time(self, cluster):
        before = cluster.sim.now
        cluster.run(5.0)
        assert cluster.sim.now == pytest.approx(before + 5.0)
