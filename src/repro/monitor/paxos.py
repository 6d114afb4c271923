"""Pure Paxos state machines (no I/O) used by the monitor quorum.

The monitor daemon (:mod:`repro.monitor.monitor`) drives these over the
simulated network; keeping the algorithm side-effect free makes the
safety properties unit- and property-testable in isolation, which is
how we check *agreement* (no two monitors ever learn different values
for the same log instance) under message loss, reordering, and leader
churn.

The structure is multi-Paxos: one acceptor log of numbered *instances*,
each deciding one value (a batch of monitor transactions).  A stable
leader skips Phase 1 in the steady state by preparing an open-ended
range of instances when it takes office (its proposal id then covers
every later instance until a higher id is seen).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Proposal ids order first by round (election term) then by proposer
#: rank, so ids are unique across proposers and totally ordered.
ProposalId = Tuple[int, int]

NO_PROPOSAL: ProposalId = (-1, -1)


@dataclass
class Proposal:
    """A value offered for one log instance."""

    instance: int
    pid: ProposalId
    value: Any


@dataclass
class PrepareReply:
    """Acceptor's answer to a prepare covering instances >= ``start``.

    ``accepted`` carries, for every instance at or after ``start`` where
    this acceptor has accepted something, the (pid, value) pair — the
    new leader must re-propose the highest-pid value per instance.
    """

    ok: bool
    promised: ProposalId
    accepted: Dict[int, Tuple[ProposalId, Any]] = field(default_factory=dict)


class Acceptor:
    """Single-acceptor state: one promise watermark, per-instance accepts.

    A real Ceph monitor persists this to its local store; the monitor
    daemon treats this object as durable across crash/restart (volatile
    leadership state lives elsewhere).
    """

    def __init__(self) -> None:
        #: Highest proposal id promised; covers ALL instances (leader
        #: lease style multi-Paxos promise).
        self.promised: ProposalId = NO_PROPOSAL
        #: instance -> (pid, value) accepted.
        self.accepted: Dict[int, Tuple[ProposalId, Any]] = {}

    def handle_prepare(self, pid: ProposalId, start: int) -> PrepareReply:
        """Phase 1b: promise if ``pid`` beats anything seen."""
        if pid <= self.promised:
            return PrepareReply(ok=False, promised=self.promised)
        self.promised = pid
        relevant = {i: pv for i, pv in self.accepted.items() if i >= start}
        return PrepareReply(ok=True, promised=pid, accepted=relevant)

    def handle_accept(self, proposal: Proposal) -> bool:
        """Phase 2b: accept unless a higher prepare has been promised."""
        if proposal.pid < self.promised:
            return False
        self.promised = proposal.pid
        self.accepted[proposal.instance] = (proposal.pid, proposal.value)
        return True

    def forget_below(self, instance: int) -> None:
        """Garbage-collect accepts for instances already chosen/applied."""
        for i in [i for i in self.accepted if i < instance]:
            del self.accepted[i]


class ChosenLog:
    """The learner side: contiguous application of chosen values.

    Values may be *learned* out of order (commit messages reorder on the
    wire) but are *applied* strictly in instance order; ``take_ready``
    hands back the next contiguous run.
    """

    def __init__(self) -> None:
        self._chosen: Dict[int, Any] = {}
        self.applied_through = -1  # highest instance applied

    def learn(self, instance: int, value: Any) -> None:
        existing = self._chosen.get(instance)
        if existing is not None and existing != value:
            raise AssertionError(
                f"paxos agreement violated at instance {instance}: "
                f"{existing!r} vs {value!r}")
        if instance > self.applied_through:
            self._chosen[instance] = value

    def known(self, instance: int) -> bool:
        return instance <= self.applied_through or instance in self._chosen

    def take_ready(self) -> List[Tuple[int, Any]]:
        """Pop the next contiguous run of chosen-but-unapplied values."""
        out = []
        nxt = self.applied_through + 1
        while nxt in self._chosen:
            out.append((nxt, self._chosen.pop(nxt)))
            self.applied_through = nxt
            nxt += 1
        return out

    @property
    def next_instance(self) -> int:
        """First instance with no locally known decision."""
        candidate = self.applied_through + 1
        while candidate in self._chosen:
            candidate += 1
        return candidate


class LeaderBook:
    """Leader-side bookkeeping for in-flight instances.

    Tracks per-instance accept quorums.  Not a safety component — the
    acceptors are — just the tally a leader keeps so it knows when an
    instance is chosen.
    """

    def __init__(self, quorum: int):
        self.quorum = quorum
        self._acks: Dict[int, set] = {}
        self._values: Dict[int, Any] = {}

    def start(self, instance: int, value: Any) -> None:
        self._acks[instance] = set()
        self._values[instance] = value

    def record_ack(self, instance: int, who: str) -> bool:
        """Record one acceptor's ack; True when quorum first reached."""
        if instance not in self._acks:
            return False
        acks = self._acks[instance]
        before = len(acks) >= self.quorum
        acks.add(who)
        after = len(acks) >= self.quorum
        return after and not before

    def finish(self, instance: int) -> None:
        self._acks.pop(instance, None)
        self._values.pop(instance, None)
