"""Unit tests: the failure injector's fault planes.

Covers the loss-rate wildcard resolution order, directional
partitions, the one fault log (shared with the store fault plane and
the nemesis engine's markers), the fault hook lifecycle (loss,
duplication / reordering / corruption), gray-failure slowdowns, arm-time
schedule validation, and the determinism pin on the dedicated
``failures`` RNG streams.
"""

import pytest

from repro.chaos import NemesisEngine, NemesisSchedule
from repro.errors import MalacologyError
from repro.rados.objects import StoredObject
from repro.sim import FixedLatency, Network, ScaledLatency, Simulator
from repro.sim.failure import FailureInjector
from repro.store import MemStore


class Sink:
    def __init__(self, name, sim):
        self.name = name
        self.sim = sim
        self.seen = []

    def deliver(self, env):
        self.seen.append((self.sim.now, env))


def make_net(seed=1, latency=0.001):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    a, b = Sink("a", sim), Sink("b", sim)
    net.register(a)
    net.register(b)
    return sim, net, a, b


class FakeEnvelope:
    """Duck-typed envelope: the sim layer only looks at ``kind``."""

    def __init__(self, kind="cast", payload=None, msg_id=0):
        self.kind = kind
        self.payload = payload if payload is not None else {"x": 1}
        self.msg_id = msg_id


# ----------------------------------------------------------------------
# Loss rates and wildcard resolution
# ----------------------------------------------------------------------
def test_loss_wildcard_resolution_order():
    sim, net, a, b = make_net()
    inj = FailureInjector(sim, net)
    # Global wildcard drops everything ...
    inj.set_loss("*", "*", 1.0)
    # ... but the exact pair is more specific and wins.
    inj.set_loss("a", "b", 0.0)
    # set_loss(rate=0) removes the entry rather than storing 0.0, so
    # resolution has to fall through to the wildcard: re-add the pair.
    inj._drop_rates[("a", "b")] = 0.0
    assert inj._loss_rate("a", "b") == 0.0
    assert inj._loss_rate("b", "a") == 1.0
    net.send("a", "b", FakeEnvelope())
    net.send("b", "a", FakeEnvelope())
    sim.run()
    assert len(b.seen) == 1 and a.seen == []


def test_loss_per_endpoint_wildcards():
    sim, net, a, b = make_net()
    inj = FailureInjector(sim, net)
    inj.set_loss("a", "*", 1.0)
    assert inj._loss_rate("a", "b") == 1.0
    assert inj._loss_rate("b", "a") == 0.0
    inj.clear_loss()
    inj.set_loss("*", "b", 1.0)
    assert inj._loss_rate("a", "b") == 1.0
    assert inj._loss_rate("a", "a") == 0.0
    # src-side wildcard is consulted before dst-side.
    inj.set_loss("a", "*", 0.0)
    inj._drop_rates[("a", "*")] = 0.0
    assert inj._loss_rate("a", "b") == 0.0


def test_loss_rate_validation_and_logging():
    sim, net, a, b = make_net()
    inj = FailureInjector(sim, net)
    with pytest.raises(ValueError):
        inj.set_loss("a", "b", 1.5)
    inj.set_loss("a", "b", 1.0)
    net.send("a", "b", FakeEnvelope())
    sim.run()
    assert b.seen == []
    assert net.drops_by_cause["drop_hook"] == 1
    assert [(kind, what) for _t, kind, what in inj.log] \
        == [("drop", "a->b")]


def test_failures_stream_is_deterministic():
    """The loss draws come from the dedicated ``failures`` stream, so
    two runs with the same seed drop the same messages."""
    outcomes = []
    for _ in range(2):
        sim, net, a, b = make_net(seed=42)
        inj = FailureInjector(sim, net)
        inj.set_loss("a", "b", 0.5)
        for _i in range(50):
            net.send("a", "b", FakeEnvelope())
        sim.run()
        outcomes.append(len(b.seen))
    assert outcomes[0] == outcomes[1]
    assert 0 < outcomes[0] < 50  # the rate actually did something


# ----------------------------------------------------------------------
# Flap and partitions
# ----------------------------------------------------------------------
class Crashy:
    """A daemon double: crash/restart/pause hooks flip ``alive``."""

    def __init__(self, name):
        self.name = name
        self.alive = True

    def crash(self):
        self.alive = False

    def restart(self):
        self.alive = True

    def pause_tickers(self):
        pass

    def resume_tickers(self):
        pass


class BareCluster:
    """The slice of a cluster the nemesis engine drives: a kernel, a
    network, named daemons and no OSDs."""

    def __init__(self, sim, net, *daemons):
        self.sim = sim
        self.net = net
        self.osds = []
        self._daemons = list(daemons)

    def daemons(self):
        return list(self._daemons)


def test_flap_validates_ordering():
    sim, net, a, b = make_net()
    engine = NemesisEngine(BareCluster(sim, net, Crashy("d")))
    sched = NemesisSchedule(name="bad-flap")
    sched.add("flap", at=5.0, target="d", down_for=0.0)
    with pytest.raises(ValueError, match="restart must come after"):
        engine.arm(sched)
    assert not engine.armed


def test_partition_heal_log_ordering():
    sim, net, a, b = make_net()
    inj = FailureInjector(sim, net)
    sim.schedule(1.0, inj.partition, "a", "b")
    sim.schedule(2.0, inj.heal, "a", "b")
    sim.run()
    assert [(t, kind, what) for t, kind, what in inj.log] \
        == [(1.0, "partition", "a|b"), (2.0, "heal", "a|b")]
    assert not net.partitioned("a", "b")


def test_oneway_partition_blocks_one_direction():
    sim, net, a, b = make_net()
    inj = FailureInjector(sim, net)
    inj.partition_oneway("a", "b")
    sim.run(0.1)
    net.send("a", "b", FakeEnvelope())
    net.send("b", "a", FakeEnvelope())
    sim.run()
    assert b.seen == []
    assert len(a.seen) == 1
    assert net.drops_by_cause["partition"] == 1
    assert ("partition", "a->b") in [(k, w) for _t, k, w in inj.log]
    inj.heal_oneway("a", "b")
    assert not net.partitioned("a", "b")


def test_heal_all_clears_every_block():
    sim, net, a, b = make_net()
    inj = FailureInjector(sim, net)
    inj.partition("a", "b")
    inj.partition_oneway("b", "a")
    sim.schedule(1.0, inj.heal_all)
    sim.run()
    assert not net.partitioned("a", "b")
    assert not net.partitioned("b", "a")
    assert (1.0, "heal", "*") in inj.log


# ----------------------------------------------------------------------
# Gray failures
# ----------------------------------------------------------------------
def test_slowdown_scales_latency_and_unslow_restores():
    sim, net, a, b = make_net(latency=0.01)
    inj = FailureInjector(sim, net)
    inj.slow("b", 10.0)
    sim.run(0.001)
    t0 = sim.now
    net.send("a", "b", FakeEnvelope())
    sim.run()
    slow_delay = b.seen[0][0] - t0
    assert slow_delay == pytest.approx(0.1, rel=0.01)
    inj.clear_slowdowns()
    t1 = sim.now
    net.send("a", "b", FakeEnvelope())
    sim.run()
    assert b.seen[1][0] - t1 == pytest.approx(0.01, rel=0.01)
    kinds = [k for _t, k, _w in inj.log]
    assert kinds == ["slow", "unslow"]
    with pytest.raises(ValueError):
        inj.slow("b", 0.0)
    assert [k for _t, k, _w in inj.log] == kinds  # refused, not logged


def test_scaled_latency_validates_factor():
    base = FixedLatency(0.002)
    sim = Simulator(seed=1)
    r = sim.rng("t")
    assert ScaledLatency(base, 3.0).sample("a", "b", r) \
        == pytest.approx(0.006)
    with pytest.raises(ValueError):
        ScaledLatency(base, 0.0)


def test_pause_resume_freezes_tickers():
    sim, net, a, b = make_net()
    inj = FailureInjector(sim, net)
    calls = []

    class Ticky:
        name = "t"

        def pause_tickers(self):
            calls.append("pause")

        def resume_tickers(self):
            calls.append("resume")

    d = Ticky()
    sim.schedule(1.0, inj.pause, d)
    sim.schedule(2.0, inj.resume, d)
    sim.run()
    assert calls == ["pause", "resume"]
    assert [(k, w) for _t, k, w in inj.log] \
        == [("pause", "t"), ("resume", "t")]


# ----------------------------------------------------------------------
# Message chaos: duplication / reordering / corruption
# ----------------------------------------------------------------------
def test_chaos_hook_installed_only_while_active():
    sim, net, a, b = make_net()
    inj = FailureInjector(sim, net)
    assert net.fault_hook is None
    inj.set_duplication(0.5)
    assert net.fault_hook is not None
    inj.set_duplication(0.0)
    assert net.fault_hook is None
    inj.set_reorder(0.2)
    inj.set_corruption(0.1)
    inj.clear_chaos()
    assert net.fault_hook is None
    # Loss rates share the one hook: live while any rate is set.
    inj.set_loss("a", "b", 0.5)
    inj.set_duplication(0.5)
    inj.clear_chaos()
    assert net.fault_hook is not None
    inj.set_loss("a", "b", 0.0)
    assert net.fault_hook is None
    inj.set_loss("*", "*", 0.5)
    inj.clear_loss()
    assert net.fault_hook is None
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            inj.set_duplication(bad)
        with pytest.raises(ValueError):
            inj.set_reorder(bad)
        with pytest.raises(ValueError):
            inj.set_corruption(bad)


def test_duplication_copies_casts_but_never_requests():
    sim, net, a, b = make_net(seed=7)
    inj = FailureInjector(sim, net)
    inj.set_duplication(1.0)
    net.send("a", "b", FakeEnvelope(kind="cast"))
    net.send("a", "b", FakeEnvelope(kind="request"))
    sim.run()
    assert len(b.seen) == 3  # cast twice, request once
    assert net.messages_duplicated == 1
    # The duplicate is a distinct object (deep copy), not an alias.
    twins = [env for _t, env in b.seen if env.kind == "cast"]
    assert twins[0] is not twins[1]


def test_detected_corruption_degrades_to_loss():
    sim, net, a, b = make_net(seed=8)
    inj = FailureInjector(sim, net)
    inj.set_corruption(1.0, detected=True)
    net.send("a", "b", FakeEnvelope())
    sim.run()
    assert b.seen == []
    assert net.messages_corrupted == 1
    assert net.drops_by_cause["chaos"] == 1


def test_undetected_corruption_mutates_payload():
    sim, net, a, b = make_net(seed=9)
    inj = FailureInjector(sim, net)
    inj.set_corruption(1.0, detected=False)
    original = FakeEnvelope(payload={"value": 7})
    net.send("a", "b", original)
    sim.run()
    assert len(b.seen) == 1
    delivered = b.seen[0][1]
    assert delivered.payload == {"value": 6}  # one bit flipped
    assert original.payload == {"value": 7}   # sender copy untouched


def test_reorder_delays_but_delivers():
    sim, net, a, b = make_net(seed=10, latency=0.01)
    inj = FailureInjector(sim, net)
    inj.set_reorder(1.0, spread=4.0)
    net.send("a", "b", FakeEnvelope())
    sim.run()
    assert len(b.seen) == 1
    assert b.seen[0][0] > 0.01  # strictly later than base latency
    assert b.seen[0][0] <= 0.01 * 5 + 1e-9


def test_mangle_falls_back_to_msg_id():
    env = FakeEnvelope(payload={})
    mangled = FailureInjector._mangle(env)
    assert mangled.msg_id == env.msg_id ^ 1


# ----------------------------------------------------------------------
# The one fault log
# ----------------------------------------------------------------------
def test_one_log_holds_every_plane_in_time_order():
    sim, net, a, b = make_net()
    d = Crashy("d")
    engine = NemesisEngine(BareCluster(sim, net, d))
    sched = NemesisSchedule(name="one-log")
    sched.add("crash", at=1.0, target="d")
    sched.add("partition", at=2.0, a="a", b="b", heal_for=0.5)
    sched.add("loss", at=3.0, src="a", dst="b", rate=1.0, lasts=1.0)
    sched.add("store_eio", at=4.0, rate=1.0, lasts=1.0)
    engine.arm(sched)
    sim.schedule(3.5, net.send, "a", "b", FakeEnvelope())
    store = MemStore()
    obj = StoredObject("x")

    def commit():
        with pytest.raises(MalacologyError):
            engine.store_plane.on_commit("osd0", store, obj)

    sim.schedule(4.5, commit)
    sim.run()
    engine.finalize()
    assert engine.injector.log == [
        (1.0, "crash", "d"),
        (2.0, "partition", "a|b"),
        (2.5, "heal", "a|b"),
        (3.0, "on", "loss a->b@1"),
        (3.5, "drop", "a->b"),
        (4.0, "off", "loss a->b@1"),
        (4.0, "on", "store_eio@1"),
        (4.5, "eio", "osd0:x"),
        (5.0, "off", "store_eio@1"),
        (5.0, "finalize", "all faults lifted"),
    ]
    assert d.alive  # finalize restarted the crashed daemon
    assert engine.status()["faults"] == 5
