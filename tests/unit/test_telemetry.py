"""Unit tests for the telemetry layer: counters, tracing, admin cmds.

Covers the PerfCounters registry in isolation, trace propagation
through the daemon RPC machinery (including span nesting across
generator-handler chains and cast vs request paths), the admin-command
surface, and the crash-resets-counters rule.
"""

import pytest

from repro.errors import MalacologyError, NotFound
from repro.msg import Daemon
from repro.sim import FixedLatency, Network, Simulator, Timeout
from repro.telemetry import PerfCounters, TraceCollector


# ----------------------------------------------------------------------
# PerfCounters in isolation
# ----------------------------------------------------------------------
def test_counters_incr_and_dump():
    perf = PerfCounters(owner="t")
    perf.incr("ops")
    perf.incr("ops", 2)
    assert perf.get("ops") == 3
    dump = perf.dump()
    assert dump["owner"] == "t"
    assert dump["counters"]["ops"] == 3


def test_gauge_fn_evaluated_at_dump_time():
    state = {"n": 1}
    perf = PerfCounters()
    perf.gauge_fn("n", lambda: state["n"])
    assert perf.dump()["gauges"]["n"] == 1
    state["n"] = 5
    assert perf.dump()["gauges"]["n"] == 5


def test_latency_tracker_stats_and_retention():
    perf = PerfCounters()
    for v in (0.001, 0.002, 0.003):
        perf.time("op", v, retain=True)
    tracker = perf.latency("op")
    assert tracker.count == 3
    assert tracker.stats.mean == pytest.approx(0.002)
    assert perf.samples("op") == [0.001, 0.002, 0.003]
    assert tracker.quantile(0.5) == pytest.approx(0.002)
    # Non-retaining trackers keep stats but no samples.
    perf.time("other", 0.5)
    assert perf.samples("other") == []
    with pytest.raises(ValueError):
        perf.latency("other").quantile(0.5)


def test_reset_clears_values_but_keeps_gauge_fns():
    perf = PerfCounters()
    perf.incr("ops")
    perf.time("lat", 0.1, retain=True)
    perf.gauge_fn("depth", lambda: 42)
    perf.reset()
    assert not perf.nonzero()
    assert perf.get("ops") == 0
    assert perf.samples("lat") == []
    assert perf.dump()["gauges"]["depth"] == 42


# ----------------------------------------------------------------------
# Tracing through the RPC machinery
# ----------------------------------------------------------------------
class Frontend(Daemon):
    """Calls through to a backend from inside a generator handler."""

    def __init__(self, sim, network, backend_name, name="frontend"):
        super().__init__(sim, network, name)
        self.backend = backend_name
        self.register_handler("work", self._h_work)
        self.register_handler("notify", self._h_notify)

    def _h_work(self, src, payload):
        yield Timeout(0.001)
        value = yield self.call(self.backend, "compute", payload)
        return value + 1

    def _h_notify(self, src, payload):
        # CAST handler that itself casts onward.
        self.cast(self.backend, "poke", payload)
        if False:
            yield  # make it a generator handler


class Backend(Daemon):
    def __init__(self, sim, network, name="backend"):
        super().__init__(sim, network, name)
        self.pokes = []
        self.register_handler("compute", lambda src, p: p * 2)
        self.register_handler("fail", self._h_fail)
        self.register_handler("poke", lambda src, p: self.pokes.append(p))

    def _h_fail(self, src, payload):
        raise NotFound("nope")


def make_chain():
    sim = Simulator(seed=3)
    net = Network(sim, latency=FixedLatency(0.001))
    backend = Backend(sim, net)
    frontend = Frontend(sim, net, "backend")
    client = Daemon(sim, net, "client")
    return sim, net, frontend, backend, client


def capture_sent(net):
    sent = []
    original = net.send

    def record(src, dst, env):
        sent.append(env)
        original(src, dst, env)

    net.send = record
    return sent


def test_untraced_rpc_has_no_trace_field():
    sim, net, frontend, backend, client = make_chain()
    sent = capture_sent(net)
    fut = client.call("frontend", "work", 5)
    assert sim.run_until_complete(fut) == 11
    assert all(env.trace is None for env in sent)
    assert sim.trace_collector.trace_ids() == []


def test_traced_generator_chain_nests_spans():
    sim, net, frontend, backend, client = make_chain()

    def op():
        value = yield client.call("frontend", "work", 5)
        return value

    proc = client.spawn(client.traced(op(), "op"))
    assert sim.run_until_complete(proc) == 11

    collector = sim.trace_collector
    [trace_id] = collector.trace_ids()
    spans = collector.spans(trace_id)
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"op", "work", "compute"}
    root = by_name["op"]
    work = by_name["work"]
    compute = by_name["compute"]
    # Causal nesting: client root -> frontend handler -> backend handler.
    assert root.parent_id is None
    assert work.parent_id == root.span_id
    assert compute.parent_id == work.span_id
    assert work.daemon == "frontend" and compute.daemon == "backend"
    # Spans close inside their parents, in simulated time.
    assert root.start <= work.start <= compute.start
    assert compute.end <= work.end <= root.end
    # The tree reconstruction agrees.
    [tree] = collector.tree(trace_id)
    assert tree["span"]["name"] == "op"
    assert tree["children"][0]["span"]["name"] == "work"
    assert (tree["children"][0]["children"][0]["span"]["name"]
            == "compute")
    path = [s["name"] for s in collector.critical_path(trace_id)]
    assert path == ["op", "work", "compute"]


def test_trace_context_propagates_on_request_and_cast():
    sim, net, frontend, backend, client = make_chain()
    sent = capture_sent(net)

    def op():
        yield client.call("frontend", "work", 1)
        client.cast("frontend", "notify", "hello")
        if False:
            yield

    proc = client.spawn(client.traced(op(), "op"))
    sim.run_until_complete(proc)
    sim.run(until=sim.now + 1.0)  # let the casts land

    requests = [e for e in sent if e.kind == "request"]
    casts = [e for e in sent if e.kind == "cast"]
    responses = [e for e in sent if e.kind == "response"]
    assert requests and casts
    # Both request and cast envelopes carry the same trace id...
    trace_ids = {e.trace["trace"] for e in requests + casts}
    assert len(trace_ids) == 1
    # ...with distinct parent spans per hop.
    assert all(e.trace is not None for e in requests + casts)
    # Responses are matched by msg_id; they carry no trace context.
    assert all(e.trace is None for e in responses)
    # The onward cast (frontend -> backend "poke") is in the tree as a
    # child of the cast handler's span.
    assert backend.pokes == ["hello"]
    collector = sim.trace_collector
    [trace_id] = collector.trace_ids()
    by_name = {s.name: s for s in collector.spans(trace_id)}
    assert by_name["poke"].parent_id == by_name["notify"].span_id
    assert by_name["notify"].kind == "cast"


def test_interleaved_traced_ops_do_not_cross_contaminate():
    sim, net, frontend, backend, client = make_chain()
    client2 = Daemon(sim, net, "client2")

    def op(c):
        value = yield c.call("frontend", "work", 3)
        return value

    p1 = client.spawn(client.traced(op(client), "op-a"))
    p2 = client2.spawn(client2.traced(op(client2), "op-b"))
    sim.run_until_complete(p1)
    sim.run_until_complete(p2)

    collector = sim.trace_collector
    assert len(collector.trace_ids()) == 2
    roots = set()
    for trace_id in collector.trace_ids():
        spans = collector.spans(trace_id)
        # Each trace has its own complete root->work->compute chain,
        # even though the two ops interleave on the same frontend.
        assert len(spans) == 3
        assert all(s.trace_id == trace_id for s in spans)
        names = {s.name for s in spans}
        assert {"work", "compute"} <= names
        roots.update(names - {"work", "compute"})
    assert roots == {"op-a", "op-b"}


def test_failed_handler_span_records_error():
    sim, net, frontend, backend, client = make_chain()

    def op():
        try:
            yield client.call("backend", "fail", None)
        except NotFound:
            pass

    proc = client.spawn(client.traced(op(), "op"))
    sim.run_until_complete(proc)
    collector = sim.trace_collector
    [trace_id] = collector.trace_ids()
    by_name = {s.name: s for s in collector.spans(trace_id)}
    assert by_name["fail"].error is not None
    assert "NotFound" in by_name["fail"].error
    assert by_name["op"].error is None  # the op caught it


# ----------------------------------------------------------------------
# Admin commands
# ----------------------------------------------------------------------
def test_admin_command_dump_and_reset():
    sim, net, frontend, backend, client = make_chain()
    fut = client.call("backend", "compute", 4)
    sim.run_until_complete(fut)
    dump = backend.admin_command("telemetry.dump")
    assert dump["counters"]["rpc.rx"] == 1
    assert "rpc.compute" in dump["latency"]
    backend.admin_command("telemetry.reset")
    assert backend.admin_command("telemetry.dump")["counters"] == {}


def test_admin_commands_also_answer_over_rpc():
    sim, net, frontend, backend, client = make_chain()
    sim.run_until_complete(client.call("backend", "compute", 4))
    fut = client.call("backend", "telemetry.dump", None)
    dump = sim.run_until_complete(fut)
    assert dump["owner"] == "backend"
    assert dump["counters"]["rpc.rx"] >= 1


def test_unknown_admin_command_raises():
    sim, net, frontend, backend, client = make_chain()
    with pytest.raises(MalacologyError):
        backend.admin_command("telemetry.nope")


def test_telemetry_trace_command_lists_and_renders():
    sim, net, frontend, backend, client = make_chain()

    def op():
        value = yield client.call("frontend", "work", 5)
        return value

    proc = client.spawn(client.traced(op(), "op"))
    sim.run_until_complete(proc)
    listing = client.admin_command("telemetry.trace")
    [trace_id] = listing["traces"]
    tree = client.admin_command("telemetry.trace", {"trace_id": trace_id})
    assert tree[0]["span"]["name"] == "op"
    rendered = client.admin_command(
        "telemetry.trace", {"trace_id": trace_id, "render": True})
    assert "frontend: work" in rendered
    assert "backend: compute" in rendered


# ----------------------------------------------------------------------
# Crash semantics (regression: counters must not survive a crash)
# ----------------------------------------------------------------------
def test_crash_resets_perf_counters():
    sim, net, frontend, backend, client = make_chain()
    sim.run_until_complete(client.call("backend", "compute", 4))
    assert backend.perf.nonzero()
    backend.crash()
    assert not backend.perf.nonzero()
    assert backend.admin_command("telemetry.dump")["counters"] == {}
    backend.restart()
    # A fresh life starts counting from zero.
    sim.run_until_complete(client.call("backend", "compute", 4))
    assert backend.perf.get("rpc.rx") == 1


def test_trace_collector_is_shared_and_resettable():
    sim = Simulator(seed=9)
    collector = TraceCollector.of(sim)
    assert TraceCollector.of(sim) is collector
    ctx = collector.begin_trace("op", daemon="x")
    collector.finish(ctx.span_id)
    assert collector.trace_ids() == [ctx.trace_id]
    collector.reset()
    assert collector.trace_ids() == []
