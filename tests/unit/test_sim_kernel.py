"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Future, Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append(("b", sim.now)))
    sim.schedule(1.0, lambda: seen.append(("a", sim.now)))
    sim.schedule(3.0, lambda: seen.append(("c", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    for tag in "abc":
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == ["a", "b", "c"]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == []
    sim.run(until=15.0)
    assert fired == ["late"]


def test_cancelled_callback_never_fires():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_process_timeout_advances_time():
    sim = Simulator()
    times = []

    def body():
        times.append(sim.now)
        yield Timeout(1.5)
        times.append(sim.now)
        yield Timeout(0.5)
        times.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert times == [0.0, 1.5, 2.0]


def test_process_return_value_resolves_completion():
    sim = Simulator()

    def body():
        yield Timeout(1.0)
        return 99

    proc = sim.spawn(body())
    result = sim.run_until_complete(proc)
    assert result == 99


def test_process_waits_on_future():
    sim = Simulator()
    fut = Future()
    got = []

    def waiter():
        value = yield fut
        got.append((value, sim.now))

    sim.spawn(waiter())
    sim.schedule(3.0, fut.resolve, "hello")
    sim.run()
    assert got == [("hello", 3.0)]


def test_future_failure_raises_inside_process():
    sim = Simulator()
    fut = Future()
    caught = []

    def waiter():
        try:
            yield fut
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    sim.schedule(1.0, fut.fail, RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_waits_on_process():
    sim = Simulator()

    def inner():
        yield Timeout(2.0)
        return "inner-done"

    def outer():
        value = yield sim.spawn(inner())
        return (value, sim.now)

    proc = sim.spawn(outer())
    assert sim.run_until_complete(proc) == ("inner-done", 2.0)


def test_unhandled_process_error_surfaces_from_run():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise ValueError("oops")

    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="oops"):
        sim.run()


def test_handled_process_error_does_not_raise_from_run():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise ValueError("oops")

    caught = []

    def guard():
        try:
            yield sim.spawn(bad())
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(guard())
    sim.run()
    assert caught == ["oops"]


def test_cancel_stops_process():
    sim = Simulator()
    steps = []

    def body():
        while True:
            yield Timeout(1.0)
            steps.append(sim.now)

    proc = sim.spawn(body())
    sim.schedule(3.5, proc.cancel)
    sim.run(until=10.0)
    assert steps == [1.0, 2.0, 3.0]
    assert proc.done


def test_rng_streams_are_deterministic_and_independent():
    a1 = Simulator(seed=5).rng("alpha").random()
    sim = Simulator(seed=5)
    # Drawing from another stream must not perturb "alpha".
    sim.rng("beta").random()
    assert sim.rng("alpha").random() == a1
    # A different seed gives a different draw.
    assert Simulator(seed=6).rng("alpha").random() != a1


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    fut = Future()
    sim.schedule(3.0, lambda: None)
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_until_complete(fut)
    assert sim.now == 3.0  # the clock rests at the last event


def test_yield_none_resumes_same_time():
    sim = Simulator()
    times = []

    def body():
        times.append(sim.now)
        yield None
        times.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert times == [0.0, 0.0]


def test_future_double_settle_rejected():
    fut = Future()
    fut.resolve(1)
    with pytest.raises(RuntimeError):
        fut.resolve(2)
    assert fut.resolve_if_pending(3) is False
    assert fut.result() == 1


def test_gather_collects_all_results():
    from repro.sim.event import gather

    sim = Simulator()
    futs = [Future() for _ in range(3)]
    out = gather(futs)
    sim.schedule(1.0, futs[2].resolve, "c")
    sim.schedule(2.0, futs[0].resolve, "a")
    sim.schedule(3.0, futs[1].resolve, "b")
    result = sim.run_until_complete(out)
    assert result == ["a", "b", "c"]


def test_gather_fails_fast_on_first_error():
    from repro.sim.event import gather

    futs = [Future(), Future()]
    out = gather(futs)
    futs[1].fail(RuntimeError("bad"))
    assert out.failed


def test_gather_of_nothing_resolves_immediately():
    from repro.sim.event import gather

    out = gather([])
    assert out.done and out.result() == []


def test_dispatch_order_of_every_yield_kind_is_pinned():
    """One fixed program mixing every yield the kernel accepts.

    ``Timeout``, ``None``, a ``Future`` settled by a bare ``schedule``
    (resolved and failed), an already-settled ``Future``, a running and
    a finished ``Process``, with several same-instant ties.  The exact
    ``(now, label)`` sequence pins the kernel's dispatch order, so a
    faster process step cannot reorder a single wake.
    """
    sim = Simulator()
    seen = []
    fut, bad, ready = Future("fut"), Future("bad"), Future("ready")
    ready.resolve("r")

    def note(label):
        seen.append((sim.now, label))

    def sleeper():
        note("sleeper:start")
        yield Timeout(1.0)
        note("sleeper:t1")
        yield None
        note("sleeper:none")
        value = yield fut
        note(f"sleeper:fut={value}")
        try:
            yield bad
        except RuntimeError as exc:
            note(f"sleeper:bad={exc}")
        value = yield ready
        note(f"sleeper:ready={value}")
        yield Timeout(0.0)
        note("sleeper:t0")
        return "slept"

    def child():
        note("child:start")
        yield Timeout(1.0)
        note("child:t1")
        yield None
        note("child:none")
        return "kid"

    def parent():
        note("parent:start")
        value = yield sim.spawn(child())
        note(f"parent:child={value}")
        yield None
        note("parent:none")
        value = yield sleeper_proc
        note(f"parent:sleeper={value}")
        value = yield sleeper_proc  # already finished
        note(f"parent:again={value}")

    def resolve():
        note("resolver")
        fut.resolve("v")

    sleeper_proc = sim.spawn(sleeper())
    sim.spawn(parent())
    sim.schedule(1.0, resolve)
    sim.schedule(1.0, bad.fail, RuntimeError("boom"))
    sim.schedule(0.0, note, "bare")
    sim.run()
    assert seen == [
        (0.0, "sleeper:start"), (0.0, "parent:start"), (0.0, "bare"),
        (0.0, "child:start"),
        (1.0, "resolver"), (1.0, "sleeper:t1"), (1.0, "child:t1"),
        (1.0, "sleeper:none"), (1.0, "child:none"),
        (1.0, "sleeper:fut=v"), (1.0, "parent:child=kid"),
        (1.0, "sleeper:bad=boom"), (1.0, "parent:none"),
        (1.0, "sleeper:ready=r"), (1.0, "sleeper:t0"),
        (1.0, "parent:sleeper=slept"), (1.0, "parent:again=slept"),
    ]
