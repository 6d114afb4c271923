"""Unit tests for the network, daemon, and RPC layers."""

import pytest

from repro.analysis.sanitizers import ProtocolViolation, SanitizerRegistry
from repro.errors import InvalidArgument, NotFound
from repro.msg import Daemon, RpcTimeout
from repro.sim import (
    FailureInjector,
    FixedLatency,
    Network,
    Simulator,
    Timeout,
)


class EchoServer(Daemon):
    def __init__(self, sim, network, name="server"):
        super().__init__(sim, network, name)
        self.casts = []
        self.register_handler("echo", lambda src, p: p)
        self.register_handler("fail", self._fail)
        self.register_handler("slow", self._slow)
        self.register_handler("note", lambda src, p: self.casts.append(p))

    def _fail(self, src, payload):
        raise NotFound("no such thing")

    def _slow(self, src, payload):
        yield Timeout(payload["delay"])
        return payload["value"]


def make_pair(latency=0.001, sanitize=False):
    sim = Simulator(seed=1)
    if sanitize:
        sim.sanitizers = SanitizerRegistry(sim)
    net = Network(sim, latency=FixedLatency(latency))
    server = EchoServer(sim, net)
    client = Daemon(sim, net, "client")
    return sim, net, server, client


def test_rpc_round_trip():
    sim, net, server, client = make_pair()
    fut = client.call("server", "echo", {"x": 1})
    assert sim.run_until_complete(fut) == {"x": 1}
    # One-way latency 1ms each direction.
    assert sim.now == pytest.approx(0.002)


def test_rpc_error_reraises_with_type():
    sim, net, server, client = make_pair()
    fut = client.call("server", "fail")
    sim.run()
    with pytest.raises(NotFound):
        fut.result()


def test_rpc_unknown_method_errors():
    sim, net, server, client = make_pair()
    fut = client.call("server", "nope")
    sim.run()
    assert fut.failed


def test_generator_handler_replies_on_completion():
    sim, net, server, client = make_pair()
    fut = client.call("server", "slow", {"delay": 5.0, "value": "done"})
    assert sim.run_until_complete(fut) == "done"
    assert sim.now == pytest.approx(5.002)


def test_rpc_timeout_fires_when_server_dead():
    sim, net, server, client = make_pair()
    server.crash()
    fut = client.call("server", "echo", "hi", timeout=2.0)
    sim.run()
    with pytest.raises(RpcTimeout):
        fut.result()


def test_late_reply_after_timeout_is_dropped():
    sim, net, server, client = make_pair()
    fut = client.call("server", "slow", {"delay": 10.0, "value": "v"},
                      timeout=1.0)
    sim.run()
    with pytest.raises(RpcTimeout):
        fut.result()  # settled by timeout; late reply must not re-settle


def test_a_reply_or_a_crash_retires_the_call_deadline():
    sim, net, server, client = make_pair()
    fut = client.call("server", "echo", "hi", timeout=2.0)
    assert sim.run_until_complete(fut) == "hi"
    assert sim.pending() == 0  # the reply cancelled the deadline
    pending = client.call("server", "slow", {"delay": 10.0, "value": "v"},
                          timeout=2.0)
    sim.run(until=sim.now + 0.5)
    client.crash()
    assert pending.failed
    assert sim.pending() == 1  # the server's sleep; no deadline left


def test_cast_is_one_way():
    sim, net, server, client = make_pair()
    client.cast("server", "note", "ping")
    sim.run()
    assert server.casts == ["ping"]


@pytest.mark.parametrize("send", ["call", "cast"])
def test_generator_handler_programming_error_is_loud(send):
    """A non-MalacologyError is a bug in the handler, not a reply:
    it must surface from ``sim.run`` however the handler was reached."""
    sim, net, server, client = make_pair()

    def boom(src, payload):
        yield Timeout(0.1)
        raise ValueError("handler bug")

    server.register_handler("boom", boom)
    getattr(client, send)("server", "boom")
    with pytest.raises(ValueError, match="handler bug"):
        sim.run()


@pytest.mark.parametrize("extra", [{}, {"fn": lambda: None}],
                         ids=["picklable", "unpicklable"])
def test_editing_a_payload_after_call_fails_at_delivery(extra):
    """The wire moves the payload: once posted it belongs to the message."""
    sim, net, server, client = make_pair(sanitize=True)
    payload = {"list": [1, 2], **extra}
    client.call("server", "echo", payload)
    payload["list"].append(3)  # edit after send
    with pytest.raises(ProtocolViolation,
                       match="between send and delivery") as ei:
        sim.run()
    assert ei.value.sanitizer == "wire"
    assert "'echo' client -> server" in ei.value.message


def _edit_now(src, payload):
    payload["seen"] = True
    return "ok"


def _edit_later(src, payload):
    yield Timeout(0.5)
    payload["seen"] = True
    return "ok"


@pytest.mark.parametrize("handler", [_edit_now, _edit_later],
                         ids=["value", "generator"])
def test_a_handler_editing_its_request_fails_at_completion(handler):
    sim, net, server, client = make_pair(sanitize=True)
    server.register_handler("edit", handler)
    client.call("server", "edit", {"n": 1})
    with pytest.raises(ProtocolViolation,
                       match="while the handler ran") as ei:
        sim.run()
    assert "'edit' client -> server" in ei.value.message


def test_the_caller_owns_a_response_it_received():
    sim, net, server, client = make_pair(sanitize=True)
    payload = {"list": [1, 2]}
    result = sim.run_until_complete(client.call("server", "echo", payload))
    assert result is payload  # moved there and back, never copied
    result["list"].append(3)
    result["mine"] = True
    assert sim.run_until_complete(client.call("server", "echo", 7)) == 7
    assert sim.sanitizers.violations == []


def test_partition_blocks_traffic_and_heal_restores():
    sim, net, server, client = make_pair()
    net.partition("client", "server")
    fut = client.call("server", "echo", 1, timeout=1.0)
    sim.run()
    assert fut.failed
    net.heal("client", "server")
    fut2 = client.call("server", "echo", 2, timeout=1.0)
    assert sim.run_until_complete(fut2) == 2


def test_crash_cancels_tickers_and_restart_hook_runs():
    sim, net, server, client = make_pair()
    ticks = []
    server.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    server.crash()
    sim.run(until=6.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_failure_injector_crash_and_restart():
    sim, net, server, client = make_pair()
    inj = FailureInjector(sim, net)
    sim.schedule(1.0, inj.crash, server)
    sim.schedule(3.0, inj.restart, server)
    f1 = client.call("server", "echo", "a", timeout=0.5)
    sim.run(until=2.0)
    assert not f1.failed  # sent at t=0, served before crash
    f2 = client.call("server", "echo", "b", timeout=0.5)
    sim.run(until=2.9)
    assert f2.failed  # server down
    sim.run(until=3.1)  # past the restart
    f3 = client.call("server", "echo", "c", timeout=0.5)
    sim.run(until=4.0)
    assert f3.result() == "c"
    assert [(kind, who) for _, kind, who in inj.log] == [
        ("crash", "server"), ("restart", "server")]


def test_message_loss_rate_drops_messages():
    sim = Simulator(seed=2)
    net = Network(sim, latency=FixedLatency(0.001))
    inj = FailureInjector(sim, net)
    EchoServer(sim, net)
    client = Daemon(sim, net, "client")
    inj.set_loss("client", "server", 1.0)
    fut = client.call("server", "echo", 1, timeout=0.5)
    sim.run()
    assert fut.failed
    inj.clear_loss()
    fut = client.call("server", "echo", 1, timeout=0.5)
    assert sim.run_until_complete(fut) == 1


def test_duplicate_handler_registration_rejected():
    sim, net, server, client = make_pair()
    with pytest.raises(ValueError):
        server.register_handler("echo", lambda s, p: p)


def test_call_from_dead_daemon_fails_immediately():
    sim, net, server, client = make_pair()
    client.crash()
    fut = client.call("server", "echo", 1)
    assert fut.failed


def test_network_counters():
    sim, net, server, client = make_pair()
    fut = client.call("server", "echo", 1)
    sim.run_until_complete(fut)
    assert net.messages_sent == 2
    assert net.messages_delivered == 2
    assert net.messages_dropped == 0
