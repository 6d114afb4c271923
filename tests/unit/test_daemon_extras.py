"""Unit tests: daemon ticker semantics, cast fan-out, epoch piggybacking."""

import pytest

from repro.msg import Daemon, Envelope
from repro.sim import FixedLatency, Network, Simulator, Timeout


def make_net(seed=9, latency=0.001):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    return sim, net


def test_ticker_with_generator_body_never_overlaps():
    sim, net = make_net()
    d = Daemon(sim, net, "d")
    active = [0]
    peaks = []

    def work():
        active[0] += 1
        peaks.append(active[0])
        yield Timeout(2.5)  # longer than the tick interval
        active[0] -= 1

    d.every(1.0, work)
    sim.run(until=12.0)
    # Ticks wait for the previous body: concurrency never exceeds 1.
    assert max(peaks) == 1
    # And the effective period is body-bound (~3.5 s), not 1 s.
    assert 2 <= len(peaks) <= 4


def test_ticker_jitter_spreads_ticks():
    sim, net = make_net()
    d = Daemon(sim, net, "d")
    times = []
    d.every(1.0, lambda: times.append(sim.now), jitter=0.5)
    sim.run(until=20.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(1.0 <= g <= 1.5 + 1e-9 for g in gaps)
    assert max(gaps) - min(gaps) > 0.05  # jitter actually varies


def test_broadcast_reaches_every_target():
    sim, net = make_net()
    src = Daemon(sim, net, "src")
    received = []

    class Sink(Daemon):
        def __init__(self, name):
            super().__init__(sim, net, name)
            self.register_handler(
                "evt", lambda s, p: received.append((self.name, p)))

    sinks = [Sink(f"sink{i}") for i in range(3)]
    for sink in sinks:
        src.cast(sink.name, "evt", "hello")
    sim.run()
    assert sorted(received) == [("sink0", "hello"), ("sink1", "hello"),
                                ("sink2", "hello")]


def test_epoch_stamping_and_observation_hooks():
    sim, net = make_net()

    class Stamper(Daemon):
        def stamp_epochs(self, env):
            env.epochs["osd"] = 42

    class Observer(Daemon):
        def __init__(self, name):
            super().__init__(sim, net, name)
            self.seen = []
            self.register_handler("ping", lambda s, p: "pong")

        def observe_epochs(self, env):
            self.seen.append(dict(env.epochs))

    stamper = Stamper(sim, net, "stamper")
    observer = Observer("observer")
    stamper.cast("observer", "ping")
    sim.run()
    assert observer.seen == [{"osd": 42}]


def test_dead_daemon_drops_inbound_silently():
    sim, net = make_net()
    d = Daemon(sim, net, "d")
    d.register_handler("x", lambda s, p: pytest.fail("should not run"))
    d.crash()
    other = Daemon(sim, net, "other")
    other.cast("d", "x")
    sim.run()


def test_restart_is_idempotent_and_crash_is_too():
    sim, net = make_net()
    d = Daemon(sim, net, "d")
    d.crash()
    d.crash()  # no-op
    assert not d.alive
    d.restart()
    d.restart()  # no-op
    assert d.alive


def test_error_reply_for_unhandled_method_names_the_daemon():
    sim, net = make_net()
    Daemon(sim, net, "server")
    client = Daemon(sim, net, "client")
    fut = client.call("server", "nope", timeout=1.0)
    sim.run()
    assert fut.failed
    assert "server" in str(fut.error)
