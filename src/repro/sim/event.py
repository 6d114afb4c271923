"""Yieldable primitives for simulation processes.

A process is a Python generator that ``yield``s one of:

* :class:`Timeout` — sleep for a span of simulated time;
* :class:`Future` — suspend until another process resolves it;
* another process — suspend until that process finishes;
* ``None`` — yield the (virtual) CPU and resume at the same instant.

The kernel (:mod:`repro.sim.kernel`) interprets these; this module has
no dependency on the kernel so daemon code can construct futures freely.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class Timeout:
    """Sleep for ``delay`` seconds of simulated time when yielded."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Future:
    """A one-shot value container that processes can wait on.

    Exactly one of :meth:`resolve` or :meth:`fail` may be called; a
    second settlement attempt raises, because double-settling almost
    always indicates a protocol bug (e.g. a duplicate RPC reply).
    ``settle_if_pending`` exists for the rare legitimate race — an RPC
    timeout firing just as the reply arrives.
    """

    __slots__ = ("_done", "_value", "_error", "_callbacks", "name",
                 "had_waiters")

    def __init__(self, name: str = ""):
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        self.name = name
        #: True once any callback was ever attached; the kernel uses this
        #: to distinguish orphaned process failures from handled ones.
        self.had_waiters = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def failed(self) -> bool:
        return self._done and self._error is not None

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def result(self) -> Any:
        """Return the value, re-raising the stored error if failed."""
        if not self._done:
            raise RuntimeError(f"future {self.name!r} not settled")
        if self._error is not None:
            raise self._error
        return self._value

    def resolve(self, value: Any = None) -> None:
        if self._done:
            raise RuntimeError(f"future {self.name!r} already settled")
        self._done = True
        self._value = value
        self._fire()

    def fail(self, error: BaseException) -> None:
        if self._done:
            raise RuntimeError(f"future {self.name!r} already settled")
        self._done = True
        self._error = error
        self._fire()

    def resolve_if_pending(self, value: Any = None) -> bool:
        """Resolve unless already settled; returns True if it acted."""
        if self._done:
            return False
        self.resolve(value)
        return True

    def fail_if_pending(self, error: BaseException) -> bool:
        """Fail unless already settled; returns True if it acted."""
        if self._done:
            return False
        self.fail(error)
        return True

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Invoke ``fn(self)`` once settled (immediately if already)."""
        self.had_waiters = True
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = "pending"
        if self._done:
            state = f"failed:{self._error!r}" if self._error else "resolved"
        return f"Future({self.name!r}, {state})"


def gather(futures: List[Future]) -> Future:
    """Return a future resolving to a list of results once all settle.

    Fails with the first error encountered (remaining results are
    discarded), mirroring ``asyncio.gather`` semantics.  Replication
    waits on each replica ack in turn instead; only the tests use this.
    """
    out = Future(name="gather")
    if not futures:
        out.resolve([])
        return out
    remaining = [len(futures)]

    def _one_done(_: Future) -> None:
        if out.done:
            return
        for f in futures:
            if f.done and f.failed:
                out.fail_if_pending(f.error)  # type: ignore[arg-type]
                return
        remaining[0] -= 1
        if remaining[0] == 0:
            out.resolve([f.result() for f in futures])

    for f in futures:
        f.add_callback(_one_done)
    return out
