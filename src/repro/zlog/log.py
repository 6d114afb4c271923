"""The ZLog client: append/read/fill/trim over Malacology interfaces.

One :class:`ZLog` instance binds a log name to a full-stack client
(:class:`~repro.core.cluster.MalacologyClient`).  The append path is
the CORFU fast path:

1. get the next position from the sequencer (File Type + Shared
   Resource interfaces — locally if this client holds the capability);
2. write the entry to the stripe object for that position (Data I/O
   interface, ``zlog`` class), tagged with the client's view of the
   epoch;
3. on ``ESTALE`` (the log was sealed underneath us), refresh the epoch
   from Service Metadata and retry with a fresh position.

All methods are generators driven on the owning client's processes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.errors import NotFound, ReadOnly, StaleEpoch
from repro.zlog.striping import StripeLayout

#: Where a log keeps its sequencer inode in the namespace.
def sequencer_path(log_name: str) -> str:
    return f"/zlog/{log_name}/seq"


def epoch_key(log_name: str) -> str:
    """Service-metadata key holding the log's current epoch."""
    return f"zlog/{log_name}/epoch"


def layout_key(log_name: str) -> str:
    return f"zlog/{log_name}/layout"


class ZLog:
    """Client handle on one shared log."""

    MAX_APPEND_RETRIES = 8

    def __init__(self, client: Any, name: str,
                 layout: Optional[StripeLayout] = None):
        self.client = client
        self.name = name
        self.layout = layout or StripeLayout(name)
        self.epoch = 1

    # ------------------------------------------------------------------
    # Creation / open
    # ------------------------------------------------------------------
    def create(self) -> Generator:
        """Create the log: sequencer inode + epoch registration."""
        c = self.client
        from repro.errors import AlreadyExists

        for path in ("/zlog", f"/zlog/{self.name}"):
            try:
                yield from c.fs_mkdir(path)
            except AlreadyExists:
                pass
        yield from c.fs_create(sequencer_path(self.name),
                               file_type="sequencer")
        yield from c.mon_kv_put(epoch_key(self.name), 1)
        yield from c.mon_kv_put(layout_key(self.name),
                                self.layout.to_dict())
        self.epoch = 1

    def open(self) -> Generator:
        """Bind to an existing log: fetch epoch and layout."""
        c = self.client
        entry = yield from c.mon_kv_get(epoch_key(self.name))
        self.epoch = entry["value"]
        entry = yield from c.mon_kv_get(layout_key(self.name))
        self.layout = StripeLayout.from_dict(entry["value"])

    def refresh_epoch(self) -> Generator:
        entry = yield from self.client.mon_kv_get(epoch_key(self.name))
        self.epoch = entry["value"]
        return self.epoch

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def append(self, data: Any) -> Generator:
        """Append one entry; returns its log position.

        End-to-end latency lands in the client's ``zlog.append``
        telemetry tracker (samples retained for CDFs); epoch races and
        slot collisions are counted separately.
        """
        c = self.client
        started = c.sim.now
        for _ in range(self.MAX_APPEND_RETRIES):
            pos = yield from c.seq_next(sequencer_path(self.name))
            try:
                yield from c.rados_exec(
                    self.layout.pool, self.layout.object_of(pos),
                    "zlog", "write",
                    {"epoch": self.epoch, "pos": pos, "data": data})
                c.perf.time("zlog.append", c.sim.now - started,
                            retain=True)
                return pos
            except StaleEpoch:
                # Sealed underneath us: adopt the new epoch, get a fresh
                # tail from the (recovered) sequencer, try again.
                c.perf.incr("zlog.append.stale")
                yield from self.refresh_epoch()
            except ReadOnly:
                # Someone beat us to this slot — a duplicate position
                # after a sequencer holder died with unflushed state.
                # Push the sequencer past the collision (it can only
                # ever move forward) and take a fresh position.
                c.perf.incr("zlog.append.conflict")
                yield from c.fs_exec(sequencer_path(self.name),
                                     "set_min_tail", {"tail": pos + 1})
                continue
        raise StaleEpoch(
            f"append to log {self.name!r} kept racing seals")

    def read(self, position: int) -> Generator:
        """Read one position; raises NotFound while unwritten."""
        result = yield from self.client.rados_exec(
            self.layout.pool, self.layout.object_of(position),
            "zlog", "read", {"epoch": self.epoch, "pos": position})
        self.client.perf.incr("zlog.read")
        return result

    def fill(self, position: int) -> Generator:
        """Mark a hole as junk so readers can skip it."""
        yield from self.client.rados_exec(
            self.layout.pool, self.layout.object_of(position),
            "zlog", "fill", {"epoch": self.epoch, "pos": position})
        self.client.perf.incr("zlog.fill")

    def trim(self, position: int) -> Generator:
        yield from self.client.rados_exec(
            self.layout.pool, self.layout.object_of(position),
            "zlog", "trim", {"epoch": self.epoch, "pos": position})
        self.client.perf.incr("zlog.trim")

    def tail(self) -> Generator:
        """Current tail (next position to be issued) from the sequencer."""
        value = yield from self.client.seq_read(sequencer_path(self.name))
        return value

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def replay(self, start: int) -> Generator:
        """Read ``[start, tail)`` for a replica; returns ``[(pos, entry)]``.

        A hole (a position issued but never written: its writer is slow
        or dead) is filled so replay can proceed — the CORFU
        hole-filling discipline — and comes back as
        ``{"state": "filled"}``.  If the writer lands after the failed
        read, the fill is refused and the position is read again.
        """
        tail = yield from self.tail()
        out = []
        for pos in range(start, tail):
            try:
                entry = yield from self.read(pos)
            except NotFound:
                try:
                    yield from self.fill(pos)
                    entry = {"state": "filled"}
                except ReadOnly:
                    entry = yield from self.read(pos)
            out.append((pos, entry))
        return out

    def read_range(self, start: int, end: int,
                   skip_holes: bool = True) -> Generator:
        """Read [start, end); returns a list of (pos, entry-or-None)."""
        out = []
        for pos in range(start, end):
            try:
                entry = yield from self.read(pos)
            except NotFound:
                if skip_holes:
                    out.append((pos, None))
                    continue
                raise
            out.append((pos, entry))
        return out
