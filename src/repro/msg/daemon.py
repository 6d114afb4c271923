"""Daemon base class: RPC handlers, casts, tickers, crash/restart.

Handler model
-------------
A handler registered with :meth:`Daemon.register_handler` receives
``(src, payload)`` and may return:

* a plain value — replied immediately;
* a :class:`Future` — replied when it settles;
* a generator — spawned as a process, replied when it completes.

Raising a :class:`MalacologyError` (or failing the future/process with
one) produces an error response which re-raises on the caller side with
its wire code intact.  Any other exception is a programming error and
propagates loudly through the simulator.

The wire moves payloads rather than copying them.  What a sender passes
to ``call`` / ``cast`` (or a handler returns) belongs to the message
from then on: the sender must not edit it, and a handler must not edit
its request payload in place.  A delivered response belongs to the
caller.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import (
    DaemonDown,
    MalacologyError,
    TimeoutError_,
    error_from_code,
)
from repro.msg.message import CAST, REQUEST, RESPONSE, Envelope
from repro.profiling import install_profile_commands
from repro.sim.event import Future, Timeout
from repro.sim.kernel import Process, Simulator
from repro.sim.network import Network
from repro.telemetry import (
    PerfCounters,
    SpanContext,
    TraceCollector,
    install_telemetry_commands,
)

#: Re-exported alias: what an RPC caller catches on deadline expiry.
RpcTimeout = TimeoutError_

#: method -> its ``rpc.<method>`` latency tracker name, built once when
#: a handler for the method is first registered, not once per request.
_RPC_TRACKER: Dict[str, str] = {}


class Daemon:
    """A network-visible process with registered RPC methods.

    Subclasses register handlers in ``__init__`` and may override
    :meth:`on_crash` / :meth:`on_restart` to model volatile vs durable
    state.  Volatile state must live on the instance and be reset in
    ``on_crash``; anything that should survive belongs in RADOS or the
    monitor store, never on the daemon — the same discipline the paper's
    services follow (section 5.1.2).
    """

    def __init__(self, sim: Simulator, network: Network, name: str):
        self.sim = sim
        self.network = network
        self.name = name
        self.alive = True
        self._handlers: Dict[str, Callable[[str, Any], Any]] = {}
        self._pending: Dict[int, Future] = {}
        #: msg_id -> the kernel deadline of a ``call`` with a timeout;
        #: the response, the expiry or a crash retires it.
        self._deadlines: Dict[int, Any] = {}
        self._next_id = 0
        self._procs: List[Process] = []
        #: Gray-failure switch: while True, ``every`` tickers keep
        #: their cadence but skip the work (see pause_tickers).
        self._tickers_paused = False
        #: Telemetry: every daemon owns a perf registry and shares the
        #: simulator-wide trace collector.  ``_trace_ctx`` is the span
        #: context of the handler currently executing on this daemon;
        #: outgoing call/cast stamp it onto the envelope.
        self.perf = PerfCounters(owner=name)
        self.tracer = TraceCollector.of(sim)
        self._trace_ctx: Optional[SpanContext] = None
        self._admin_commands: Dict[str, Callable[[Any], Any]] = {}
        self.perf.gauge_fn("rpc.pending", lambda: len(self._pending))
        self.perf.gauge_fn(
            "procs.active",
            lambda: sum(1 for p in self._procs if not p.done))
        install_telemetry_commands(self)
        install_profile_commands(self)
        network.register(self)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_handler(self, method: str,
                         fn: Callable[[str, Any], Any]) -> None:
        if method in self._handlers:
            raise ValueError(f"{self.name}: duplicate handler {method!r}")
        self._handlers[method] = fn
        _RPC_TRACKER.setdefault(method, f"rpc.{method}")

    def register_admin_command(self, name: str,
                               fn: Callable[[Any], Any]) -> None:
        """Register an out-of-band admin command (Ceph admin socket).

        Commands take one ``args`` dict (may be None) and return a
        JSON-safe value.  They are invoked directly on the daemon
        object — no simulated time passes — so they work even when the
        cluster is wedged, like Ceph's UNIX-socket surface.  Each
        command is also exposed as an RPC handler of the same name so
        peers and tests can query it in-band.
        """
        if name in self._admin_commands:
            raise ValueError(f"{self.name}: duplicate admin cmd {name!r}")
        self._admin_commands[name] = fn
        self.register_handler(
            name, lambda src, args: self.admin_command(name, args))

    def admin_command(self, name: str, args: Any = None) -> Any:
        """Invoke an admin command by name (raises on unknown names)."""
        fn = self._admin_commands.get(name)
        if fn is None:
            raise MalacologyError(
                f"{self.name}: no admin command {name!r}")
        return fn(args)

    def has_admin_command(self, name: str) -> bool:
        return name in self._admin_commands

    def admin_commands(self) -> List[str]:
        """The names this daemon's admin socket answers (sorted)."""
        return sorted(self._admin_commands)

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def call(self, dst: str, method: str, payload: Any = None,
             timeout: Optional[float] = None) -> Future:
        """Send a request; returns a future for the response value."""
        if not self.alive:
            fut = Future(name=f"{self.name}->{dst}:{method}")
            fut.fail(DaemonDown(f"{self.name} is down"))
            return fut
        msg_id = self._next_id
        self._next_id += 1
        fut = Future(name=f"{self.name}->{dst}:{method}#{msg_id}")
        self._pending[msg_id] = fut
        self.perf.incr("rpc.tx")
        self._post(Envelope(kind=REQUEST, src=self.name, dst=dst,
                            method=method, msg_id=msg_id, payload=payload,
                            trace=self._trace_wire()))
        if timeout is not None:
            self._deadlines[msg_id] = self.sim.deadline(
                timeout, self._expire, msg_id)
        return fut

    def cast(self, dst: str, method: str, payload: Any = None) -> None:
        """Fire-and-forget one-way message (gossip, notifications)."""
        if not self.alive:
            return
        msg_id = self._next_id
        self._next_id += 1
        self.perf.incr("rpc.tx")
        self._post(Envelope(kind=CAST, src=self.name, dst=dst,
                            method=method, msg_id=msg_id, payload=payload,
                            trace=self._trace_wire()))

    def _trace_wire(self) -> Optional[Dict[str, int]]:
        ctx = self._trace_ctx
        return ctx.wire() if ctx is not None else None

    @property
    def trace_context(self) -> Optional[SpanContext]:
        """The span context of the handler currently executing here.

        Public read-only view for passive observers (protocol
        sanitizers attach the causal trace to violation reports).
        """
        return self._trace_ctx

    def _post(self, env: Envelope) -> None:
        # No copy: the payload now belongs to the message (see the
        # module docstring); the sanitizers' wire plane checks that.
        san = self.sim.sanitizers
        if san is not None:
            san.wire.on_post(env)
        self.stamp_epochs(env)
        self.network.send(self.name, env.dst, env)

    def stamp_epochs(self, env: Envelope) -> None:
        """Hook: subclasses piggyback map epochs on outgoing messages."""

    def _expire(self, msg_id: int) -> None:
        del self._deadlines[msg_id]
        fut = self._pending.pop(msg_id, None)
        if fut is not None:
            fut.fail_if_pending(
                RpcTimeout(f"rpc #{msg_id} from {self.name} timed out"))

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        if not self.alive:
            return  # a dead daemon drops traffic; callers time out
        san = self.sim.sanitizers
        if san is not None:
            san.wire.on_deliver(envelope, daemon=self)
        self.observe_epochs(envelope)
        if envelope.kind == RESPONSE:
            self._on_response(envelope)
        elif envelope.kind in (REQUEST, CAST):
            self._on_request(envelope)
        else:
            raise ValueError(f"unknown envelope kind {envelope.kind!r}")

    def observe_epochs(self, env: Envelope) -> None:
        """Hook: subsystems react to piggybacked epochs (gossip pull)."""

    def _on_response(self, env: Envelope) -> None:
        fut = self._pending.pop(env.msg_id, None)
        if fut is None:
            return  # late reply after timeout; drop
        deadline = self._deadlines.pop(env.msg_id, None)
        if deadline is not None:
            deadline.cancel()
        if env.error is not None:
            code, message = env.error
            fut.fail_if_pending(error_from_code(code, message))
        else:
            fut.resolve_if_pending(env.payload)

    def _on_request(self, env: Envelope) -> None:
        handler = self._handlers.get(env.method)
        if handler is None:
            if env.kind == REQUEST:
                self._reply(env, error=MalacologyError(
                    f"{self.name}: no handler for {env.method!r}"))
            return
        self.perf.incr("rpc.rx")
        span = None
        ctx = None
        if env.trace is not None:
            span = self.tracer.start_span(
                env.method, daemon=self.name,
                trace_id=env.trace["trace"], parent_id=env.trace["span"],
                src=env.src, kind=env.kind)
            ctx = SpanContext(span.trace_id, span.span_id)
        started = self.sim.now
        # Only the synchronous part runs here, with ``ctx`` active; a
        # generator handler's later steps keep it via _run_traced.
        # ``_complete`` runs under ``prev``.
        prev, self._trace_ctx = self._trace_ctx, ctx
        try:
            result = handler(env.src, env.payload)
        except MalacologyError as exc:
            self._trace_ctx = prev
            self._complete(env, span, started, error=exc)
            return
        finally:
            self._trace_ctx = prev
        if isinstance(result, GeneratorType):
            if ctx is not None:
                result = self._run_traced(result, ctx)
            result = self.spawn(
                result, name=f"{self.name}:{env.method}").completion
        if isinstance(result, Future):
            result.add_callback(lambda fut: self._complete(
                env, span, started,
                None if fut.failed else fut.result(), fut.error))
        else:
            self._complete(env, span, started, result)

    def _run_traced(self, body: Generator, ctx: SpanContext) -> Generator:
        """Pass-through trampoline keeping ``_trace_ctx`` set per step.

        Adds no simulated events and no extra yields — determinism is
        untouched; it only brackets each ``send``/``throw`` into the
        wrapped generator with a context swap.
        """
        to_send: Any = None
        to_throw: Optional[BaseException] = None
        while True:
            prev, self._trace_ctx = self._trace_ctx, ctx
            try:
                if to_throw is not None:
                    err, to_throw = to_throw, None
                    yielded = body.throw(err)
                else:
                    yielded = body.send(to_send)
            except StopIteration as stop:
                return getattr(stop, "value", None)
            finally:
                self._trace_ctx = prev
            try:
                to_send = yield yielded
            except GeneratorExit:
                body.close()
                raise
            # mal: disable=MAL004 -- trampoline: re-thrown into the
            # wrapped generator on the next step, never swallowed
            except BaseException as exc:
                to_send, to_throw = None, exc

    def traced(self, body: Generator, name: str) -> Generator:
        """Wrap a client-side generator op under a new root span.

        Usage::

            proc = client.do(client.traced(log.append(data), "zlog.append"))

        Every RPC the op issues (and every hop those trigger) lands in
        the same trace; dump it with ``telemetry.trace`` afterwards.
        """
        ctx = self.tracer.begin_trace(name, daemon=self.name)

        def _root() -> Generator:
            error: Optional[BaseException] = None
            try:
                result = yield from self._run_traced(body, ctx)
                return result
            # mal: disable=MAL004 -- records the error on the span and
            # immediately re-raises
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.tracer.finish(ctx.span_id, error=error)

        return _root()

    def _complete(self, env: Envelope, span: Any, started: float,
                  value: Any = None,
                  error: Optional[BaseException] = None) -> None:
        """Finish one handled REQUEST or CAST, however it settled.

        Handler activity has one home: the ``rpc.<method>`` latency
        tracker (plus ``rpc.<method>.errors``) that health checks,
        ``profile.dump`` and the Prometheus export all read.  The span
        closes before the reply goes out, so a handler span never
        outlives the response that settles it.
        """
        san = self.sim.sanitizers
        if san is not None:
            san.wire.on_complete(env, daemon=self)
        self.perf.time(_RPC_TRACKER[env.method], self.sim.now - started)
        if error is not None:
            self.perf.incr(f"rpc.{env.method}.errors")
        if span is not None:
            self.tracer.finish(span.span_id, error=error)
        if not self.alive:
            return
        if error is not None and not isinstance(error, MalacologyError):
            # Programming error: surface it, don't mask as EIO.
            raise error
        if env.kind == REQUEST:
            self._reply(env, value, error)

    def _reply(self, env: Envelope, value: Any = None,
               error: Optional[MalacologyError] = None) -> None:
        self._post(Envelope(
            kind=RESPONSE, src=self.name, dst=env.src, method=env.method,
            msg_id=env.msg_id, payload=value,
            error=None if error is None else (error.code, str(error))))

    # ------------------------------------------------------------------
    # Processes and timers
    # ------------------------------------------------------------------
    def spawn(self, body: Generator, name: str = "") -> Process:
        """Start a process that dies with the daemon on crash."""
        proc = self.sim.spawn(body, name=name or f"{self.name}:proc")
        self._procs.append(proc)
        if len(self._procs) > 64:
            self._procs = [p for p in self._procs if not p.done]
        return proc

    def every(self, interval: float, fn: Callable[[], Any],
              jitter: float = 0.0, name: str = "") -> Process:
        """Run ``fn`` every ``interval`` simulated seconds while alive.

        ``fn`` may return a generator, which is run to completion before
        the next tick is scheduled (ticks never overlap — matching how
        the MDS balancer tick works).
        """
        rng = self.sim.rng(f"ticker:{self.name}:{name}")

        def _loop() -> Generator:
            while True:
                delay = interval
                if jitter > 0.0:
                    delay += rng.uniform(0.0, jitter)
                yield Timeout(delay)
                if not self.alive:
                    return
                if self._tickers_paused:
                    continue
                result = fn()
                if isinstance(result, GeneratorType):
                    yield self.sim.spawn(result, name=f"{name}:tick")

        return self.spawn(_loop(), name=name or f"{self.name}:ticker")

    def pause_tickers(self) -> None:
        """Freeze periodic work without killing the daemon (gray failure).

        Tickers keep waking on schedule — so their jitter RNG streams
        stay in lockstep with an unpaused run — but skip the tick body:
        no heartbeats, no scrubs, no balancer passes.  In-flight RPC
        handling is unaffected; the daemon looks alive and idle.
        """
        self._tickers_paused = True

    def resume_tickers(self) -> None:
        self._tickers_paused = False

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Hard failure: kill processes, drop in-flight RPC state."""
        if not self.alive:
            return
        self.alive = False
        for proc in self._procs:
            proc.cancel()
        self._procs.clear()
        for fut in self._pending.values():
            fut.fail_if_pending(DaemonDown(f"{self.name} crashed"))
        self._pending.clear()
        for deadline in self._deadlines.values():
            deadline.cancel()
        self._deadlines.clear()
        self.on_crash()

    def restart(self) -> None:
        if self.alive:
            return
        self.alive = True
        self._tickers_paused = False  # a reboot clears the stall
        self.on_restart()

    def on_crash(self) -> None:
        """Subclass hook: discard volatile state.

        The base implementation clears the perf counter registry —
        telemetry is volatile daemon state and must not survive a
        crash unless something durably stored it.  Subclasses that
        override this must call ``super().on_crash()``.
        """
        self.perf.reset()

    def on_restart(self) -> None:
        """Subclass hook: re-spawn tickers, reload durable state."""

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"{type(self).__name__}({self.name!r}, {state})"
