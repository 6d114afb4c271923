"""Unit tests: ZLog naming helpers, hole-filling replay, and the
TransactionalTable replica, driven over an in-memory log."""

import pytest

from repro.errors import NotFound, ReadOnly
from repro.zlog.log import ZLog, epoch_key, layout_key, sequencer_path
from repro.zlog.striping import StripeLayout
from repro.zlog.table import TransactionalTable


class MemoryLog(ZLog):
    """ZLog with its storage primitives in a list; ``None`` is a hole.

    ``replay`` is inherited, so the replica-side hole path runs as is.
    A position in ``late`` is a hole whose writer lands just before our
    fill: the fill is refused with ``ReadOnly``, as the zlog class does.
    """

    def __init__(self, slots=(), late=None):
        super().__init__(client=None, name="mem")
        self.slots = list(slots)
        self.late = dict(late or {})
        self.fills = []

    def tail(self):
        yield from ()
        return len(self.slots)

    def read(self, position):
        yield from ()
        if self.slots[position] is None:
            raise NotFound(f"position {position} unwritten")
        return self.slots[position]

    def fill(self, position):
        yield from ()
        self.fills.append(position)
        if position in self.late:
            self.slots[position] = written(self.late.pop(position))
        if self.slots[position] is not None:
            raise ReadOnly(f"position {position} already written")
        self.slots[position] = {"state": "filled"}

    def append(self, data):
        yield from ()
        self.slots.append(written(data))
        return len(self.slots) - 1


def written(data):
    return {"state": "written", "data": data}


def txn(reads, writes):
    return {"kind": "txn", "reads": reads, "writes": writes}


def run(gen):
    """Drive a generator that never blocks (the memory log never does)."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator blocked on a memory log")


def test_naming_helpers_are_namespaced_per_log():
    assert sequencer_path("mylog") == "/zlog/mylog/seq"
    assert epoch_key("mylog") == "zlog/mylog/epoch"
    assert layout_key("mylog") == "zlog/mylog/layout"
    assert sequencer_path("a") != sequencer_path("b")


def test_zlog_default_layout_matches_name():
    log = ZLog(client=None, name="events")
    assert log.layout.log_name == "events"
    assert log.epoch == 1


def test_transactional_table_verdicts_are_deterministic():
    entries = [
        written(txn({}, {"x": 1})),
        written(txn({"x": 0}, {"x": 2})),
        written(txn({"x": 0}, {"x": 99})),  # stale
        written(txn({"x": 1}, {"y": 5})),
        {"state": "filled"},  # a filled hole is a no-op
        written({"op": "put", "key": "y", "value": 0}),  # foreign: ignored
        written({"kind": "txn", "reads": {}, "writes": {},
                 "deletes": ["x"]}),
        written(txn({"x": 1}, {"x": 3})),  # read x before its delete
        written(txn({"x": 6}, {"z": 1})),  # read the tombstone
    ]
    a = TransactionalTable(MemoryLog(entries))
    b = TransactionalTable(MemoryLog(entries))
    assert run(a.snapshot()) == run(b.snapshot()) == {"y": 5, "z": 1}
    assert a._verdicts == b._verdicts == {0: True, 1: True, 2: False,
                                          3: True, 6: True, 7: False,
                                          8: True}
    assert a.commits == 5 and a.aborts == 2
    with pytest.raises(NotFound):
        run(a.get("x"))


def test_replay_reads_a_hole_again_when_the_writer_wins_the_fill():
    log = MemoryLog([written(txn({}, {"a": 1})), None,
                     written(txn({}, {"c": 3}))],
                    late={1: txn({}, {"b": 2})})
    table = TransactionalTable(log)
    assert run(table.snapshot()) == {"a": 1, "b": 2, "c": 3}
    assert log.fills == [1]
    assert table._verdicts == {0: True, 1: True, 2: True}


def test_transact_that_read_a_deleted_key_aborts_and_retries():
    log = MemoryLog()
    table, other = TransactionalTable(log), TransactionalTable(log)
    run(table.blind_put("x", 1))
    seen = []

    def update(values):
        if not seen:
            run(other.delete("x"))  # lands between our read and append
        seen.append(values["x"])
        return {"x": (values["x"] or 0) + 10}

    pos = run(table.transact(["x"], update))
    assert seen == [1, None]
    assert table._verdicts == {0: True, 1: True, 2: False, pos: True}
    assert table.aborts == 1
    assert run(other.get("x")) == 10


def test_two_interleaved_syncs_apply_each_entry_once():
    class PausingLog(MemoryLog):
        def tail(self):
            yield "paused"  # a replay suspends here, as on a real log
            return len(self.slots)

    log = PausingLog([written(txn({}, {"x": 1})),
                      written(txn({"x": 0}, {"x": 2}))])
    table = TransactionalTable(log)
    first, second = table.sync(), table.sync()
    assert next(first) == next(second) == "paused"  # both start at 0
    for sync in (first, second):
        with pytest.raises(StopIteration):
            sync.send(None)
    assert table._verdicts == {0: True, 1: True}
    assert table.commits == 2 and table.aborts == 0
    assert table._state["x"] == (2, 1)


def test_stripe_layout_positions_cover_all_objects_evenly():
    layout = StripeLayout("even", width=4)
    counts = {}
    for pos in range(400):
        counts[layout.object_of(pos)] = counts.get(
            layout.object_of(pos), 0) + 1
    assert set(counts.values()) == {100}
