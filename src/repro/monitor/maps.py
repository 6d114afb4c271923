"""Versioned cluster maps: MonMap, OSDMap, MDSMap.

Ceph records cluster state in per-subsystem "maps" identified by a
monotonically increasing *epoch*.  Every daemon and client caches the
maps it cares about and compares epochs piggybacked on incoming
messages to discover staleness (paper sections 4.1 and 4.4).

Maps here are plain data (dicts all the way down).  ``to_dict`` copies
the containers and shares the values under them (one pool's config, one
interface's record), and the wire moves the dict without copying it.
Mutation happens only in the monitor quorum's state machine, one
committed transaction at a time, and replaces a value, never edits it,
so a dict taken earlier stays a stable snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import InvalidArgument, NotFound


class ClusterMap:
    """Base class: an epoch plus subsystem-specific content.

    Subclasses define ``KIND`` and their content schema.  ``to_dict`` /
    ``from_dict`` round-trip the full state for wire transfer and for
    durable storage in the monitor store.
    """

    KIND = "base"

    def __init__(self, epoch: int = 0):
        if epoch < 0:
            raise InvalidArgument(f"negative epoch {epoch}")
        self.epoch = epoch

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.KIND, "epoch": self.epoch}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterMap":
        m = cls(epoch=data["epoch"])
        return m

    def __repr__(self) -> str:
        return f"{type(self).__name__}(epoch={self.epoch})"


class MonMap(ClusterMap):
    """Membership of the monitor quorum itself.

    Fixed for the lifetime of a simulation (monitor membership changes
    are out of the paper's scope); still versioned for uniformity.
    """

    KIND = "mon"

    def __init__(self, epoch: int = 0, mons: Optional[List[str]] = None):
        super().__init__(epoch)
        self.mons: List[str] = sorted(mons or [])

    @property
    def quorum_size(self) -> int:
        return len(self.mons) // 2 + 1

    def rank_of(self, name: str) -> int:
        try:
            return self.mons.index(name)
        except ValueError:
            raise NotFound(f"{name} not in monmap") from None

    def to_dict(self) -> Dict[str, Any]:
        d = super().to_dict()
        d["mons"] = list(self.mons)
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MonMap":
        return cls(epoch=data["epoch"], mons=list(data["mons"]))


class OSDMap(ClusterMap):
    """Object-storage-daemon membership, pools, and installed interfaces.

    Two Malacology-relevant pieces live here:

    * ``pools`` — name -> {size (replication), pg_num}; placement is
      computed from this map alone (clients never ask a central broker
      where an object lives — CRUSH-style).
    * ``interfaces`` — the registry of dynamically installed object
      interface classes: name -> {version, source_ref, categories}.
      Interface *code* is stored durably in RADOS; the map records the
      authoritative version so OSDs know when to (re)load (paper
      sections 4.2 and 4.4).  Embedding only a reference keeps maps
      small, per the guidance that monitor values stay compact.
    """

    KIND = "osd"

    def __init__(self, epoch: int = 0,
                 osds: Optional[Dict[str, str]] = None,
                 pools: Optional[Dict[str, Dict[str, Any]]] = None,
                 interfaces: Optional[Dict[str, Dict[str, Any]]] = None):
        super().__init__(epoch)
        #: name -> "up" | "down"
        self.osds: Dict[str, str] = dict(osds or {})
        self.pools: Dict[str, Dict[str, Any]] = dict(pools or {})
        self.interfaces: Dict[str, Dict[str, Any]] = dict(interfaces or {})

    # -- membership ----------------------------------------------------
    def up_osds(self) -> List[str]:
        return sorted(n for n, st in self.osds.items() if st == "up")

    def all_osds(self) -> List[str]:
        return sorted(self.osds)

    def is_up(self, name: str) -> bool:
        return self.osds.get(name) == "up"

    # -- pools ----------------------------------------------------------
    def pool(self, name: str) -> Dict[str, Any]:
        if name not in self.pools:
            raise NotFound(f"pool {name!r} does not exist")
        return self.pools[name]

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d = super().to_dict()
        d["osds"] = dict(self.osds)
        d["pools"] = dict(self.pools)
        d["interfaces"] = dict(self.interfaces)
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OSDMap":
        return cls(epoch=data["epoch"], osds=data["osds"],
                   pools=data["pools"], interfaces=data["interfaces"])


class MDSMap(ClusterMap):
    """Metadata-server cluster state.

    Holds rank assignments (which MDS daemon serves which rank), the
    authoritative Mantle balancer version (paper section 5.1.1 — the
    version names a RADOS object holding the policy source), and the
    lease policy knobs for the Shared Resource interface.
    """

    KIND = "mds"

    def __init__(self, epoch: int = 0,
                 ranks: Optional[Dict[int, str]] = None,
                 state: Optional[Dict[str, str]] = None,
                 balancer_version: str = "",
                 lease_policy: Optional[Dict[str, Any]] = None,
                 routing_mode: str = "client",
                 subtrees: Optional[Dict[str, int]] = None):
        super().__init__(epoch)
        #: rank (int) -> daemon name currently holding it.
        self.ranks: Dict[int, str] = dict(ranks or {})
        #: daemon name -> "up" | "down" | "standby"
        self.state: Dict[str, str] = dict(state or {})
        #: Name of the RADOS object holding the active balancer policy;
        #: empty string means "use the built-in default balancer".
        self.balancer_version = balancer_version
        #: Shared Resource interface policy parameters (section 4.3.1):
        #: mode, min_hold, quota, max_hold — consumed by the MDS Locker.
        self.lease_policy: Dict[str, Any] = dict(
            lease_policy or {"mode": "best-effort"})
        #: How a wrong MDS handles a request after migration (Figure
        #: 11): "proxy" forwards internally and relays the reply;
        #: "client" redirects so the client contacts the owner directly.
        self.routing_mode = routing_mode
        #: Subtree authority: path prefix -> owning rank (dynamic
        #: subtree partitioning's unit of delegation).
        self.subtrees: Dict[str, int] = dict(subtrees or {"/": 0})

    def owner_of(self, path: str) -> int:
        """Rank owning ``path`` by longest-prefix subtree match."""
        best_rank = 0
        best_len = -1
        for prefix, rank in self.subtrees.items():
            if _path_has_prefix(path, prefix) and len(prefix) > best_len:
                best_rank = rank
                best_len = len(prefix)
        return best_rank

    def rank_holder(self, rank: int) -> Optional[str]:
        return self.ranks.get(rank)

    def rank_of(self, name: str) -> Optional[int]:
        for rank, holder in self.ranks.items():
            if holder == name:
                return rank
        return None

    def active_ranks(self) -> List[int]:
        return sorted(self.ranks)

    def to_dict(self) -> Dict[str, Any]:
        d = super().to_dict()
        d["ranks"] = dict(self.ranks)
        d["state"] = dict(self.state)
        d["balancer_version"] = self.balancer_version
        d["lease_policy"] = dict(self.lease_policy)
        d["routing_mode"] = self.routing_mode
        d["subtrees"] = dict(self.subtrees)
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MDSMap":
        return cls(epoch=data["epoch"], ranks=data["ranks"],
                   state=data["state"],
                   balancer_version=data["balancer_version"],
                   lease_policy=data["lease_policy"],
                   routing_mode=data["routing_mode"],
                   subtrees=data["subtrees"])


def _path_has_prefix(path: str, prefix: str) -> bool:
    """Component-wise prefix test: "/a" covers "/a/b" but not "/ab"."""
    if prefix == "/":
        return True
    return path == prefix or path.startswith(prefix + "/")


#: kind -> class, for generic map hydration on clients.
MAP_CLASSES = {cls.KIND: cls for cls in (MonMap, OSDMap, MDSMap)}


def map_from_dict(data: Dict[str, Any]) -> ClusterMap:
    """Hydrate any map snapshot received over the wire."""
    kind = data.get("kind")
    cls = MAP_CLASSES.get(kind)
    if cls is None:
        raise InvalidArgument(f"unknown map kind {kind!r}")
    return cls.from_dict(data)
