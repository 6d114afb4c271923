"""The discrete-event simulator: clock, scheduler, and processes.

Determinism contract
--------------------
Given the same seed and the same sequence of ``spawn``/``schedule``
calls, a simulation replays identically: the event queue breaks time
ties by insertion order, and all randomness flows through named RNG
streams derived from the seed (:meth:`Simulator.rng`).  Nothing in the
kernel consults wall-clock time.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
from typing import Any, Callable, Dict, Generator, Iterator, Optional

from repro.sim.event import Future, Timeout

#: Type of a process body: a generator yielding Timeout/Future/Process/None.
ProcessBody = Generator[Any, Any, Any]


class _ScheduledCall:
    """A cancellable callback sitting in the event queue."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Process:
    """A running generator coroutine inside the simulator.

    The process's completion is itself a :class:`Future` (``.completion``),
    so processes can wait on each other by yielding the process object.
    A ``return value`` inside the generator becomes the completion value.
    """

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = ""):
        self.sim = sim
        self.body = body
        self.name = name or getattr(body, "__name__", "proc")
        self.completion = Future(name=f"proc:{self.name}")
        self._cancelled = False

    @property
    def done(self) -> bool:
        return self.completion.done

    def cancel(self) -> None:
        """Stop the process at its next suspension point.

        Cancellation closes the underlying generator (running its
        ``finally`` blocks) and resolves the completion future with
        ``None``.  Cancelling a finished process is a no-op.
        """
        if self.completion.done or self._cancelled:
            return
        self._cancelled = True
        self.body.close()
        self.completion.resolve(None)

    def _step(self, send_value: Any = None,
              send_error: Optional[BaseException] = None) -> None:
        if self._cancelled or self.completion.done:
            return
        try:
            if send_error is not None:
                yielded = self.body.throw(send_error)
            else:
                yielded = self.body.send(send_value)
        except StopIteration as stop:
            self.completion.resolve(getattr(stop, "value", None))
            return
        # mal: disable=MAL004 -- the process-death trap: the error is
        # delivered to the completion future's waiter or re-raised
        # from Simulator.run, never swallowed
        except Exception as exc:
            # A process dying with an unhandled exception settles its
            # completion future; if nothing is waiting, the simulator
            # records it so errors never pass silently.
            self.completion.fail(exc)
            self.sim._note_process_failure(self, exc)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if yielded is None:
            self.sim.schedule(0.0, self._step)
        elif isinstance(yielded, Timeout):
            self.sim.schedule(yielded.delay, self._step)
        elif isinstance(yielded, Future):
            yielded.add_callback(self._resume_from_future)
        elif isinstance(yielded, Process):
            yielded.completion.add_callback(self._resume_from_future)
        else:
            self._step(send_error=TypeError(
                f"process {self.name!r} yielded unsupported {yielded!r}"))

    def _resume_from_future(self, fut: Future) -> None:
        # Resume on the event queue (not inline) to keep causality:
        # a resolve() at time t wakes waiters at time t but after the
        # resolver finishes its own step.
        if fut.failed:
            self.sim.schedule(0.0, self._step, None, fut.error)
        else:
            self.sim.schedule(0.0, self._step, fut.result())

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Event loop with a virtual clock.

    Typical use::

        sim = Simulator(seed=7)
        sim.spawn(my_daemon_loop())
        sim.run(until=120.0)

    Unhandled exceptions inside processes are collected and re-raised
    from :meth:`run` unless the process's completion future had a
    waiter (in which case the error was delivered to the waiter).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._now = 0.0
        self._queue: list = []
        self._seq: Iterator[int] = iter(range(2**62))
        self._rngs: Dict[str, random.Random] = {}
        self._failures: list = []
        self._stopped = False
        #: Telemetry attachment point: ``TraceCollector.of(sim)``
        #: installs the cluster-wide span collector here so every
        #: daemon on this simulator shares one causally-consistent
        #: trace store timed on this clock.
        self.trace_collector: Optional[Any] = None
        #: Protocol-sanitizer attachment point (repro.analysis).  The
        #: hooks daemons call are passive observers, so an installed
        #: registry never perturbs the event schedule.
        self.sanitizers: Optional[Any] = None
        #: Profiler attachment points (repro.profiling).  ``profiler``
        #: is the deterministic simulation-plane counter set,
        #: ``wall_profiler`` the host wall-clock/allocation plane.
        #: Both are ``None`` by default — the dispatch loop's fast
        #: path is a single ``is None`` check — and both are passive:
        #: enabling them leaves the event schedule byte-identical.
        self.profiler: Optional[Any] = None
        self.wall_profiler: Optional[Any] = None
        #: Chaos-engine attachment point (repro.chaos).  Set by
        #: ``NemesisEngine.arm`` so oracles, the mgr, and tests can
        #: discover the active engine from the simulator alone.
        self.chaos: Optional[Any] = None
        if os.environ.get("MALACOLOGY_SANITIZE"):
            from repro.analysis.sanitizers import install_sanitizers
            install_sanitizers(self)

    # ------------------------------------------------------------------
    # Clock and randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def rng(self, stream: str) -> random.Random:
        """A deterministic RNG for the named stream.

        Streams are independent: drawing from one never perturbs
        another, so adding instrumentation cannot change an experiment.
        """
        if stream not in self._rngs:
            digest = hashlib.sha256(
                f"{self.seed}:{stream}".encode()).digest()
            self._rngs[stream] = random.Random(
                int.from_bytes(digest[:8], "big"))
        return self._rngs[stream]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> _ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: {delay}")
        call = _ScheduledCall(fn, args)
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), call))
        return call

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a generator as a process; begins at the current time."""
        proc = Process(self, body, name=name)
        self.schedule(0.0, proc._step)
        return proc

    def timeout_future(self, fut: Future, delay: float,
                       error: BaseException) -> None:
        """Fail ``fut`` with ``error`` after ``delay`` unless settled."""
        self.schedule(delay, fut.fail_if_pending, error)

    def stop(self) -> None:
        """Halt :meth:`run` after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulated time at exit.  If ``until`` is given, the
        clock is advanced to exactly ``until`` even if the queue drained
        earlier, so back-to-back ``run`` calls compose predictably.
        """
        self._stopped = False
        queue = self._queue
        while queue and not self._stopped:
            if until is not None and queue[0][0] > until:
                break
            self._dispatch_next()
        if until is not None and self._now < until:
            self._now = until
        if self._failures:
            self._raise_pending_failures()
        return self._now

    def run_until_complete(self, proc_or_future: Any,
                           limit: float = 1e9) -> Any:
        """Drive the simulation until the given process/future settles.

        Convenience for tests and examples: returns the settled value
        (or raises its error).  Raises ``RuntimeError`` if the event
        queue drains without settling it — that means the awaited thing
        deadlocked.
        """
        fut = (proc_or_future.completion
               if isinstance(proc_or_future, Process) else proc_or_future)
        if not isinstance(fut, Future):
            raise TypeError("expected a Process or Future")
        fut.had_waiters = True  # we are the waiter; errors reach us
        while not fut.done:
            if not self._queue:
                raise RuntimeError(
                    f"event queue drained but {fut!r} never settled "
                    "(deadlock)")
            if self._now > limit:
                raise RuntimeError(f"exceeded simulated time limit {limit}")
            self._dispatch_next()
        return fut.result()

    def _dispatch_next(self) -> None:
        """Pop the earliest event and run it.

        The one dispatch step both run loops share, and the kernel's
        single observer call site: ``profiler`` counts the event,
        ``wall_profiler`` brackets the callback.  Orphaned process
        failures surface right after the event that caused them.
        """
        when, _, call = heapq.heappop(self._queue)
        profiler = self.profiler
        if call.cancelled:
            if profiler is not None:
                profiler.on_cancelled()
            return
        self._now = when
        if profiler is not None:
            profiler.on_event(when, len(self._queue))
        wall = self.wall_profiler
        if wall is None:
            call.fn(*call.args)
        else:
            token = wall.begin()
            try:
                call.fn(*call.args)
            finally:
                wall.end_dispatch(token, call)
        if self._failures:
            self._raise_pending_failures()

    # ------------------------------------------------------------------
    # Failure bookkeeping
    # ------------------------------------------------------------------
    def _note_process_failure(self, proc: Process, exc: BaseException) -> None:
        # If someone is (or becomes) waiting on the completion future the
        # error reaches them; we only surface truly orphaned failures.
        self._failures.append((proc.name, exc, proc.completion))

    def _raise_pending_failures(self) -> None:
        still_orphaned = []
        for name, exc, fut in self._failures:
            if fut.had_waiters:  # the error was delivered to a waiter
                continue
            still_orphaned.append((name, exc))
        self._failures = []
        if still_orphaned:
            name, exc = still_orphaned[0]
            raise RuntimeError(
                f"unhandled error in process {name!r}: {exc!r}") from exc
