"""Capabilities and lease policies — the Shared Resource interface.

The MDS grants clients *capabilities* on inodes: an exclusive,
cacheable cap lets a client read and mutate inode state locally (for a
sequencer inode, that means granting log positions without a network
round trip).  Sharing is cooperative: when another client wants the
resource, the MDS asks the holder to release, and the holder complies
*per the active lease policy* (paper sections 4.3.1 and 6.1.1):

``best-effort``
    Release as soon as asked (Ceph's default; Figure 5a — heavy
    interleaving, much time lost to cap exchange).
``delay``
    Hold at least ``min_hold`` seconds before honouring a revoke
    (Figure 5b).
``quota``
    Hold until ``quota`` operations have been served locally, bounded
    by ``max_hold`` seconds (Figures 5c and 6 — the
    throughput/latency dial).

The policy travels in the grant message, so clients always apply the
cluster's current policy; Malacology exposes the knobs through the MDS
map (``lease_policy``) and per file type overrides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import InvalidArgument
from repro.sim.event import Future

#: Policy modes.
BEST_EFFORT = "best-effort"
DELAY = "delay"
QUOTA = "quota"
#: No caching at all: every access is a server round trip (the mode the
#: load-balancing experiments force, section 6.2: "these experiments
#: measure contention at the sequencers by forcing clients to make
#: round-trips for every request").
ROUND_TRIP = "round-trip"

MODES = (BEST_EFFORT, DELAY, QUOTA, ROUND_TRIP)


@dataclass
class LeasePolicy:
    """Validated view of the ``lease_policy`` dict in the MDS map."""

    mode: str = BEST_EFFORT
    min_hold: float = 0.0
    quota: int = 0
    max_hold: float = 0.25

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidArgument(f"unknown lease mode {self.mode!r}")
        if self.min_hold < 0 or self.max_hold <= 0:
            raise InvalidArgument("bad lease hold bounds")
        if self.quota < 0:
            raise InvalidArgument("negative quota")

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "LeasePolicy":
        return cls(mode=d.get("mode", BEST_EFFORT),
                   min_hold=d.get("min_hold", 0.0),
                   quota=d.get("quota", 0),
                   max_hold=d.get("max_hold", 0.25))

    def to_dict(self) -> Dict[str, Any]:
        return {"mode": self.mode, "min_hold": self.min_hold,
                "quota": self.quota, "max_hold": self.max_hold}

    @property
    def cacheable(self) -> bool:
        return self.mode != ROUND_TRIP


@dataclass
class Capability:
    """One exclusive grant of an inode to a client."""

    ino: int
    client: str
    seq: int
    granted_at: float
    policy: LeasePolicy
    revoking: bool = False


class Locker:
    """Per-MDS capability table: for each inode, the holder and the
    queue of waiters, each waiter with the future its grant settles.

    Invariant (property-tested): at most one client holds the cap on
    any inode at any time; grants happen only after the previous
    holder's release has been processed.
    """

    def __init__(self) -> None:
        self._caps: Dict[int, Capability] = {}
        #: ino -> client -> grant future, in FIFO (insertion) order
        self._waiters: Dict[int, Dict[str, Future]] = {}
        self._seq = 0

    def holder_of(self, ino: int) -> Optional[Capability]:
        return self._caps.get(ino)

    def held_inos(self) -> List[int]:
        return sorted(self._caps)

    def try_grant(self, ino: int, client: str, now: float,
                  policy: LeasePolicy) -> Union[Capability, Future]:
        """Grant if free (or already held by this client); else queue.

        Returns the capability on success.  A client queued behind the
        current holder gets its grant future instead — the same one
        each time it asks until :meth:`next_waiter` dequeues it.
        """
        cap = self._caps.get(ino)
        if cap is not None and cap.client != client:
            waiters = self._waiters.setdefault(ino, {})
            fut = waiters.get(client)
            if fut is None:
                fut = waiters[client] = Future(name=f"grant:{ino}:{client}")
            return fut
        if cap is not None:
            return cap  # re-grant to the same holder (refresh)
        self._seq += 1
        cap = Capability(ino=ino, client=client, seq=self._seq,
                         granted_at=now, policy=policy)
        self._caps[ino] = cap
        return cap

    def needs_revoke(self, ino: int) -> Optional[Capability]:
        """The cap to revoke if someone is waiting and none in flight."""
        cap = self._caps.get(ino)
        if cap is None or cap.revoking:
            return None
        if not self._waiters.get(ino):
            return None
        return cap

    def mark_revoking(self, ino: int) -> None:
        cap = self._caps.get(ino)
        if cap is not None:
            cap.revoking = True

    def revoking_count(self) -> int:
        """How many grants have a revoke in flight (health gauge)."""
        return sum(1 for cap in self._caps.values() if cap.revoking)

    def release(self, ino: int, client: str, seq: int) -> bool:
        """Process a release; True if it removed the current grant.

        Stale releases (wrong client or old seq) are ignored — they are
        echoes of already-processed revocations.
        """
        cap = self._caps.get(ino)
        if cap is None or cap.client != client or cap.seq != seq:
            return False
        del self._caps[ino]
        return True

    def next_waiter(self, ino: int) -> Optional[Tuple[str, Future]]:
        """Dequeue the longest waiter: its name and grant future."""
        waiters = self._waiters.get(ino)
        if not waiters:
            return None
        client = next(iter(waiters))
        fut = waiters.pop(client)
        if not waiters:
            del self._waiters[ino]
        return client, fut

    def queued(self) -> List[Future]:
        """Every waiter's grant future, inode by inode in queue order."""
        return [fut for waiters in self._waiters.values()
                for fut in waiters.values()]

    def drop_ino(self, ino: int) -> List[Future]:
        """Forget all cap state for an inode (unlinked or migrated
        away); returns its waiters' futures for the caller to fail."""
        self._caps.pop(ino, None)
        return list(self._waiters.pop(ino, {}).values())
