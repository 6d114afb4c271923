"""Object placement: PG mapping and CRUSH-like acting-set selection.

Placement is a pure function of (OSD map, pool, object id): any client
or daemon with the same map epoch computes the same primary and
replicas, with no central lookup — the property RADOS is built on.

Objects hash into *placement groups* (PGs); each PG maps onto an
ordered *acting set* of OSDs via Highest-Random-Weight (rendezvous)
hashing, which gives CRUSH's key property: when membership changes,
only the PGs touching the changed OSD move.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from repro.errors import InvalidArgument
from repro.monitor.maps import OSDMap


def stable_hash(text: str) -> int:
    """A process-independent 64-bit hash (Python's builtin is salted)."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def pg_of(oid: str, pg_num: int) -> int:
    """Placement group of an object within its pool."""
    if pg_num <= 0:
        raise InvalidArgument(f"pg_num must be positive, got {pg_num}")
    return stable_hash(oid) % pg_num


def acting_set(osdmap: OSDMap, pool: str, pgid: int) -> List[str]:
    """Ordered acting set for one PG: primary first, then replicas.

    Rendezvous hashing over the *up* OSDs: each OSD scores
    ``hash(pool, pgid, osd)`` and the top ``size`` win.  Downed OSDs
    simply drop out of the ranking, promoting the next-best — the same
    "acting set" adjustment Ceph makes during failure.
    """
    cfg = osdmap.pool(pool)
    size = cfg["size"]
    candidates = osdmap.up_osds()
    scored = sorted(
        candidates,
        key=lambda osd: stable_hash(f"{pool}/{pgid}/{osd}"),
        reverse=True,
    )
    return scored[:size]


def locate(osdmap: OSDMap, pool: str, oid: str) -> Tuple[int, List[str]]:
    """(pgid, acting set) for an object."""
    pgid = pg_of(oid, osdmap.pool(pool)["pg_num"])
    return pgid, acting_set(osdmap, pool, pgid)
