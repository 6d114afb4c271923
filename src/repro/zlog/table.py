"""Optimistic-concurrency transactions over the shared log.

Section 7's future work proposes "an elastic cloud database" built on
the Malacology interfaces; the shared-log literature the paper builds
on (Tango, Hyder — citations [7]-[10]) shows the recipe: serialize
*transaction intents* through the log and let every replica decide
commit/abort deterministically by replay.

:class:`TransactionalTable` implements that recipe on ZLog:

* a transaction record carries its read set (key -> version observed)
  and its write set (key -> new value);
* replaying replicas commit the record iff every read version still
  matches — first-committer-wins optimistic concurrency;
* because the log is totally ordered and replay is deterministic,
  every replica reaches the same commit/abort verdict with no
  coordination beyond the log itself.

``transact`` retries aborted transactions with fresh reads, giving
serializable read-modify-write without locks.  Used only through
``blind_put`` / ``delete`` / ``get`` / ``snapshot``, the table is a
Tango-style replicated dictionary: every replica reaches the same state
by replaying the log in position order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.errors import InvalidArgument, NotFound, TryAgain
from repro.zlog.log import ZLog

#: Value of a deleted key.  The tombstone keeps the delete's version, so
#: a transaction that read the key before the delete aborts.
_DELETED = object()


class TransactionalTable:
    """One replica of a log-serialized, optimistically-concurrent table."""

    MAX_TXN_RETRIES = 16

    def __init__(self, log: ZLog):
        self.log = log
        #: key -> (value, version); version = log position of the txn
        #: that last wrote or deleted the key.
        self._state: Dict[str, Tuple[Any, int]] = {}
        self._applied = 0
        #: log position -> commit verdict, so a transaction's outcome
        #: can be read even after later writers overwrite its keys.
        self._verdicts: Dict[int, bool] = {}
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def sync(self) -> Generator:
        """Replay committed log entries up to the tail."""
        for pos, entry in (yield from self.log.replay(self._applied)):
            self._apply(pos, entry)
            self._applied = pos + 1

    def _apply(self, pos: int, entry: Dict[str, Any]) -> None:
        if entry.get("state") != "written":
            return
        txn = entry["data"]
        if txn.get("kind") != "txn":
            return  # foreign record on a shared log: ignore
        for key, version in txn["reads"].items():
            current = self._state.get(key, (None, -1))[1]
            if current != version:
                self.aborts += 1
                self._verdicts[pos] = False
                return  # conflict: a later writer got in first
        for key, value in txn["writes"].items():
            self._state[key] = (value, pos)
        for key in txn.get("deletes", ()):
            self._state[key] = (_DELETED, pos)
        self.commits += 1
        self._verdicts[pos] = True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> Generator:
        yield from self.sync()
        value = self._state.get(key, (_DELETED, -1))[0]
        if value is _DELETED:
            raise NotFound(f"key {key!r} not in table")
        return value

    def snapshot(self) -> Generator:
        yield from self.sync()
        return {k: v for k, (v, _) in self._state.items()
                if v is not _DELETED}

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def transact(self, read_keys: List[str],
                 update: Callable[[Dict[str, Any]], Dict[str, Any]]
                 ) -> Generator:
        """Serializable read-modify-write.

        ``update`` receives {key: value-or-None for read_keys} and
        returns the write set.  Appends the intent, replays to the
        intent's position, and checks the verdict; aborted attempts
        retry with fresh reads (bounded).  Returns the committing log
        position.
        """
        if not callable(update):
            raise InvalidArgument("update must be callable")
        for _ in range(self.MAX_TXN_RETRIES):
            yield from self.sync()
            seen = {k: self._state.get(k, (None, -1)) for k in read_keys}
            reads = {k: version for k, (_, version) in seen.items()}
            values = {k: None if v is _DELETED else v
                      for k, (v, _) in seen.items()}
            writes = update(dict(values))
            if not isinstance(writes, dict) or not writes:
                raise InvalidArgument(
                    "update must return a non-empty write dict")
            pos = yield from self.log.append(
                {"kind": "txn", "reads": reads, "writes": writes})
            # Replay through our own record to learn the verdict.
            yield from self.sync()
            if self._verdicts.get(pos):
                return pos
        raise TryAgain("transaction kept conflicting; giving up")

    def blind_put(self, key: str, value: Any) -> Generator:
        """Unconditional write (no read set — never aborts)."""
        pos = yield from self.log.append(
            {"kind": "txn", "reads": {}, "writes": {key: value}})
        return pos

    def delete(self, key: str) -> Generator:
        """Unconditional delete; leaves a tombstone at the delete's version."""
        pos = yield from self.log.append(
            {"kind": "txn", "reads": {}, "writes": {}, "deletes": [key]})
        return pos
