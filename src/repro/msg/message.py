"""Wire envelope shared by all daemon-to-daemon traffic.

Payloads are plain Python objects: dicts and tuples, plus the system's
own values, which cross as themselves with no codec (cluster maps,
committed ``StoredObject``s, Paxos ``PrepareReply``s, cluster-log
entries).  Nothing is copied at send time: a posted payload belongs to
the message, so the sender and the handler that receives it share one
object and neither may edit it (see ``Daemon._post``).  Sharing
mutable state through the "network" is a classic simulation bug that
makes protocols look more consistent than they are; the sanitizers'
``wire`` plane digests every payload at send, delivery and handler
completion and fails the run when it changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Envelope kinds.
REQUEST = "request"
RESPONSE = "response"
CAST = "cast"


@dataclass
class Envelope:
    """One message on the wire.

    ``error`` is a (code, message) pair on failed responses; ``payload``
    carries the request arguments or the successful response value.
    """

    kind: str
    src: str
    dst: str
    method: str
    msg_id: int
    payload: Any = None
    error: Optional[Tuple[str, str]] = None
    #: RPC trace context ``{"trace": id, "span": id}``, stamped by the
    #: sender when the sending code runs under an active span (see
    #: ``repro.telemetry.trace``); None for untraced traffic.  The
    #: receiving daemon opens a child span under ``span``.
    trace: Optional[Dict[str, int]] = None
    #: Epoch piggybacking: daemons stamp outgoing messages with the map
    #: epochs they know about, which is how peers discover they are
    #: stale and trigger gossip fetches (paper section 4.4).
    epochs: dict = field(default_factory=dict)
    #: ``(id(payload), digest)`` recorded by the wire sanitizer at send
    #: time; None when no sanitizer is installed.
    wire_digest: Optional[Tuple[int, int]] = None

    def __repr__(self) -> str:
        return (f"Envelope({self.kind} {self.src}->{self.dst} "
                f"{self.method}#{self.msg_id})")
