"""Mantle decision audit trail: why did the balancer do that?

The paper's Figures 8-10 show *what* the balancer did to throughput;
this module records *why*: every balancing tick appends one record
with the policy identity, the measured load vector the policy saw, the
decision it produced, and the counter deltas the execution caused.
Post-hoc, an operator (or a test) can line up each migration with the
exact inputs that triggered it.

Each MDS's balancer owns one :class:`MantleAuditTrail` (a bounded ring
— audit data is volatile daemon state like any telemetry) and exposes
it through the ``mantle.audit`` admin command; the mgr collects and
merges the per-MDS trails during its scrape so ``audit.dump`` shows
one cluster-wide, time-ordered decision history.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional


class MantleAuditTrail:
    """Bounded ring of balancer tick records for one MDS."""

    CAPACITY = 512

    def __init__(self) -> None:
        self._records: Deque[Dict[str, Any]] = deque(maxlen=self.CAPACITY)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._records)

    def record(self, time: float, rank: int, policy: Optional[str],
               status: str,
               load_table: Optional[List[Dict[str, Any]]] = None,
               decision: Optional[Dict[str, Any]] = None,
               moves: Optional[Dict[int, List[Any]]] = None,
               counter_deltas: Optional[Dict[str, float]] = None,
               error: Optional[str] = None) -> Dict[str, Any]:
        """Append one tick record; returns it (already ring-trimmed).

        ``status`` is the tick outcome: ``decided`` when the policy ran
        (whether or not it migrated), or a skip reason (``no-policy``,
        ``no-table``, ``policy-error``, ``policy-load-error``).
        """
        self._seq += 1
        entry: Dict[str, Any] = {
            "seq": self._seq,
            "time": time,
            "rank": rank,
            "policy": policy,
            "status": status,
        }
        if load_table is not None:
            entry["load"] = load_table
        if decision is not None:
            entry["decision"] = decision
        if moves:
            entry["moves"] = {int(k): list(v) for k, v in moves.items()}
        if counter_deltas:
            entry["counter_deltas"] = dict(counter_deltas)
        if error is not None:
            entry["error"] = error
        self._records.append(entry)
        return entry

    def records(self, since_seq: int = 0) -> List[Dict[str, Any]]:
        """Records with seq > ``since_seq`` (all by default), oldest
        first.  Values are copies safe to ship over the wire."""
        return [dict(r) for r in self._records if r["seq"] > since_seq]

    def clear(self) -> None:
        self._records.clear()
        # seq keeps counting: consumers dedupe on (rank, seq), and a
        # cleared trail must not reissue already-seen sequence numbers.


def merge_trails(collected: Dict[str, List[Dict[str, Any]]]
                 ) -> List[Dict[str, Any]]:
    """Merge per-MDS record lists into one time-ordered history.

    ``collected`` maps MDS daemon name to that daemon's records; the
    output interleaves them by (time, daemon, seq) and stamps each
    record with its source daemon.
    """
    merged: List[Dict[str, Any]] = []
    for daemon in sorted(collected):
        for rec in collected[daemon]:
            stamped = dict(rec)
            stamped["mds"] = daemon
            merged.append(stamped)
    merged.sort(key=lambda r: (r["time"], r["mds"], r["seq"]))
    return merged
