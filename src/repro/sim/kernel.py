"""The discrete-event simulator: clock, scheduler, and processes.

Determinism contract
--------------------
Given the same seed and the same sequence of ``spawn``/``schedule``/
``deadline`` calls, a simulation replays identically: every call runs
in ``(time, insertion order)`` order, and all randomness flows through
named RNG streams derived from the seed (:meth:`Simulator.rng`).
Nothing in the kernel consults wall-clock time.

Three structures hold the pending calls, and none changes that order:

* the **heap** holds calls due later, keyed ``(time, seq)``;
* the **ready FIFO** holds calls due at ``now`` (routed by
  ``now + delay == now``, so a positive delay that rounds away joins
  it too).  Every heap entry due at ``now`` was pushed before the
  clock reached ``now``, so it runs before the FIFO, and the FIFO runs
  in insertion order;
* one **deadline lane** per delay value holds that delay's deadlines
  in FIFO order, each with the ``(time, seq)`` key ``schedule`` would
  have given it.  Only the lane's head sits in the heap, so a live
  deadline fires at exactly its heap position, ties included; a
  cancelled one leaves the lane without ever reaching the heap.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
from collections import deque
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


class _Deadline(_ScheduledCall):
    """A cancellable callback waiting in a :class:`DeadlineLane`."""

    __slots__ = ("when", "seq", "lane")

    def __init__(self, fn: Callable[..., None], args: tuple, when: float,
                 seq: int, lane: "DeadlineLane"):
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.when = when
        self.seq = seq
        self.lane = lane

    def cancel(self) -> None:
        self.cancelled = True
        self.lane.trim()


class DeadlineLane:
    """The FIFO of pending deadlines that share one delay.

    Deadlines join in ``(time, seq)`` order, because the clock never
    runs backwards, so the lane needs only its head in the heap: the
    lane itself sits there as the call, under the key of the head it
    was armed with.  A cancelled head leaves at once (``trim``); the
    heap entry it was armed with then fires into nothing and re-arms
    the lane with its new head.
    """

    __slots__ = ("sim", "entries", "armed_seq", "fn", "fired")

    #: The heap's view of the lane as a call: never cancelled, no args.
    cancelled = False
    args: tuple = ()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.entries: deque = deque()
        #: seq of the head this lane was armed with (None: not in heap).
        self.armed_seq: Optional[int] = None
        self.fn = self._fire
        #: The deadline the last firing ran (None: it fired into
        #: nothing), for the wall profiler's attribution.
        self.fired: Optional[_Deadline] = None

    def add(self, dl: _Deadline) -> None:
        self.entries.append(dl)
        if self.armed_seq is None:
            self._arm(dl)

    def trim(self) -> None:
        entries = self.entries
        while entries and entries[0].cancelled:
            entries.popleft()

    def _arm(self, head: _Deadline) -> None:
        self.armed_seq = head.seq
        heapq.heappush(self.sim._queue, (head.when, head.seq, self))

    def _fire(self) -> None:
        entries = self.entries
        head = None
        if entries and entries[0].seq == self.armed_seq:
            head = entries.popleft()
            self.trim()
        if entries:
            self._arm(entries[0])
        else:
            self.armed_seq = None
        self.fired = head
        if head is not None:
            head.fn(*head.args)


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
        if self._cancelled or self.completion._done:
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
        # Wait on what was yielded, commonest kind first (``Timeout``
        # is never subclassed, so an exact type test suffices).
        if type(yielded) is Timeout:
            self.sim.schedule(yielded.delay, self._step)
        elif yielded is None:
            self.sim._ready.append(_ScheduledCall(self._step, ()))
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
        # resolver finishes its own step.  ``fut`` is settled here.
        if fut._error is not None:
            self.sim._ready.append(
                _ScheduledCall(self._step, (None, fut._error)))
        else:
            self.sim._ready.append(_ScheduledCall(self._step, (fut._value,)))

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
        #: Current simulated time in seconds.  Only the kernel writes
        #: it: the dispatch step, and ``run(until=...)``'s padding.
        self.now = 0.0
        #: Calls due later: a heap of ``(time, seq, call)``.
        self._queue: list = []
        #: Calls due at ``now``, in insertion order.
        self._ready: deque = deque()
        #: delay -> the lane of pending deadlines with that delay.
        self._lanes: Dict[float, DeadlineLane] = {}
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
    # Randomness
    # ------------------------------------------------------------------
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
        when = self.now + delay
        if when == self.now:
            self._ready.append(call)
        else:
            heapq.heappush(self._queue, (when, next(self._seq), call))
        return call

    def deadline(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> _ScheduledCall:
        """Like :meth:`schedule`, for a deadline that is mostly cancelled.

        The call waits in its delay's :class:`DeadlineLane` instead of
        the heap, so cancelling it (``handle.cancel()``) frees it as
        soon as it reaches the lane's front, and the heap stays as
        small as the number of delays in use.
        """
        when = self.now + delay
        if when <= self.now:
            return self.schedule(delay, fn, *args)
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = DeadlineLane(self)
        dl = _Deadline(fn, args, when, next(self._seq), lane)
        lane.add(dl)
        return dl

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a generator as a process; begins at the current time."""
        proc = Process(self, body, name=name)
        self._ready.append(_ScheduledCall(proc._step, ()))
        return proc

    def pending(self) -> int:
        """Calls waiting to run: heap, ready FIFO and deadline lanes.

        A cancelled call counts until the kernel drops it.
        """
        armed = sum(1 for lane in self._lanes.values()
                    if lane.armed_seq is not None)
        return (len(self._queue) - armed + len(self._ready)
                + sum(len(lane.entries) for lane in self._lanes.values()))

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
        queue, ready = self._queue, self._ready
        while not self._stopped:
            if ready:
                if until is not None and self.now > until:
                    break
            elif not queue or (until is not None and queue[0][0] > until):
                break
            self._dispatch_next()
        if until is not None and self.now < until:
            self.now = until
        if self._failures:
            self._raise_pending_failures()
        return self.now

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
            # A lane with pending deadlines always has a heap entry.
            if not self._queue and not self._ready:
                raise RuntimeError(
                    f"event queue drained but {fut!r} never settled "
                    "(deadlock)")
            if self.now > limit:
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
        queue, ready = self._queue, self._ready
        if ready and not (queue and queue[0][0] == self.now):
            call = ready.popleft()
            when = self.now
        else:
            when, _, call = heapq.heappop(queue)
        profiler = self.profiler
        if call.cancelled:
            if profiler is not None:
                profiler.on_cancelled()
            return
        self.now = when
        if profiler is not None:
            profiler.on_event(when, self.pending())
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
