"""Unit tests: latency models, network counters, cluster log entries."""

import pytest

from repro.monitor.cluster_log import ClusterLogEntry, DEBUG, ERROR, INFO
from repro.monitor.store import MonitorStore
from repro.sim import (
    FixedLatency,
    LogNormalLatency,
    Network,
    Simulator,
    UniformLatency,
)
from repro.sim.network import lan_latency


def rng():
    return Simulator(seed=1).rng("test")


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
def test_fixed_latency_is_constant():
    model = FixedLatency(0.002)
    r = rng()
    assert {model.sample("a", "b", r) for _ in range(10)} == {0.002}
    with pytest.raises(ValueError):
        FixedLatency(-1.0)


def test_uniform_latency_within_bounds():
    model = UniformLatency(0.001, 0.003)
    r = rng()
    samples = [model.sample("a", "b", r) for _ in range(200)]
    assert all(0.001 <= s <= 0.003 for s in samples)
    assert max(samples) > min(samples)
    with pytest.raises(ValueError):
        UniformLatency(0.003, 0.001)


def test_lognormal_latency_median_and_cap():
    model = LogNormalLatency(median=0.001, sigma=0.5, cap=0.002)
    r = rng()
    samples = sorted(model.sample("a", "b", r) for _ in range(999))
    assert all(s <= 0.002 for s in samples)
    median = samples[len(samples) // 2]
    assert 0.0005 < median < 0.002
    with pytest.raises(ValueError):
        LogNormalLatency(median=0.0)


@pytest.mark.parametrize("cap", [None, 0.0015])
@pytest.mark.parametrize("sigma", [0.0, 0.35, 1.5])
def test_lognormal_sample_is_the_stdlib_draw(sigma, cap):
    """``sample`` inlines ``Random.lognormvariate``: same floats, and
    the generator left in the same state, draw for draw."""
    model = LogNormalLatency(median=0.001, sigma=sigma, cap=cap)
    capped = 0
    for seed in range(20):
        ours = Simulator(seed=seed).rng("net")
        stdlib = Simulator(seed=seed).rng("net")
        for _ in range(2000):
            want = stdlib.lognormvariate(model.mu, sigma)
            if cap is not None:
                capped += want > cap
                want = min(want, cap)
            assert model.sample("a", "b", ours) == want
        assert ours.getstate() == stdlib.getstate()
    if cap is not None and sigma > 0:
        assert capped, "the cap never applied"


def test_lan_latency_profile_is_sane():
    model = lan_latency()
    r = rng()
    samples = [model.sample("a", "b", r) for _ in range(500)]
    assert all(0 < s <= 5e-3 for s in samples)


def test_loopback_messages_are_near_instant():
    sim = Simulator(seed=3)
    net = Network(sim, latency=FixedLatency(0.5))
    seen = []

    class Sink:
        name = "self"

        def deliver(self, env):
            seen.append(sim.now)

    net.register(Sink())
    net.send("self", "self", "hello")
    sim.run()
    assert seen and seen[0] < 0.001  # loopback skips the latency model


def test_send_to_unknown_endpoint_counts_as_dropped():
    sim = Simulator(seed=4)
    net = Network(sim, latency=FixedLatency(0.001))
    net.send("a", "ghost", "x")
    sim.run()
    assert net.messages_dropped == 1
    assert net.messages_delivered == 0


def test_duplicate_endpoint_registration_rejected():
    sim = Simulator(seed=5)
    net = Network(sim, latency=FixedLatency(0.001))

    class Sink:
        name = "dup"

        def deliver(self, env):
            pass

    net.register(Sink())
    with pytest.raises(ValueError):
        net.register(Sink())


# ----------------------------------------------------------------------
# Cluster log entries
# ----------------------------------------------------------------------
def test_cluster_log_entry_round_trip_and_severity():
    entry = ClusterLogEntry(time=1.5, severity=ERROR, who="mds.0",
                            message="bad")
    # Through a monitor snapshot and back: entries cross as themselves.
    store = MonitorStore(["m0"])
    store.apply_batch([{"op": "log", "entry": entry}])
    again = MonitorStore(["m0"])
    again.restore(store.snapshot())
    assert again.cluster_log == [entry] and again.cluster_log[0] is entry
    assert entry.at_least(INFO)
    assert not ClusterLogEntry(0, DEBUG, "x", "m").at_least(INFO)
    assert "mds.0" in entry.format()


def test_cluster_log_entry_rejects_bad_severity():
    with pytest.raises(ValueError):
        ClusterLogEntry(time=0, severity="LOUD", who="x", message="m")
