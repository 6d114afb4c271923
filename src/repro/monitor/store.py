"""The monitor's replicated state machine: maps, KV store, cluster log.

Every committed Paxos value is a *batch* of transactions; applying a
batch is deterministic, so all monitors converge on identical state.
Transactions:

``{"op": "kv_put", "key": k, "value": v}``
    Service-metadata write; bumps the key's version.
``{"op": "kv_del", "key": k}``
``{"op": "map_update", "kind": "osd"|"mds", "actions": [...]}``
    Structured delta against a cluster map.  Each transaction builds one
    successor map at the next epoch, however many actions it carries,
    and publishes it only if every action applies: a failed transaction
    leaves the map as it was, and a published map is never edited, so
    subscribers, caches and snapshots share it without copying.
``{"op": "log", "entry": ClusterLogEntry}``
    Centralized cluster-log append (paper section 5.1.3); the frozen
    entry itself is stored, tailed and snapshotted.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import InvalidArgument, NotFound, NotPermitted
from repro.monitor.cluster_log import ClusterLogEntry
from repro.monitor.maps import MDSMap, MonMap, OSDMap
from repro.store.base import normalize_backend, normalize_cache

#: Service-metadata keys can carry a registered guard; see
#: :meth:`MonitorStore.register_kv_guard`.
KvGuard = Callable[[str, Any], Any]


class MonitorStore:
    """Applied state shared by the monitor quorum.

    Guards (authorization / sanitization hooks, paper section 4.1) are
    code, not data — they are registered identically on every monitor at
    cluster build time so application stays deterministic.
    """

    MAX_LOG_ENTRIES = 10_000

    def __init__(self, mons: List[str]):
        self.monmap = MonMap(epoch=1, mons=mons)
        self.osdmap = OSDMap(epoch=1)
        self.mdsmap = MDSMap(epoch=1)
        #: key -> {"value": v, "version": n}
        self.kv: Dict[str, Dict[str, Any]] = {}
        self.cluster_log: List[ClusterLogEntry] = []
        self._kv_guards: List[Tuple[str, KvGuard]] = []

    # ------------------------------------------------------------------
    # Guards: the programmable hooks of the Service Metadata interface
    # ------------------------------------------------------------------
    def register_kv_guard(self, prefix: str, guard: KvGuard) -> None:
        """Install a guard for keys under ``prefix``.

        The guard receives ``(key, value)`` and either returns a
        (possibly sanitized) value or raises :class:`NotPermitted`.
        This implements the paper's "authorization control / trigger
        actions based on specific values" examples.
        """
        self._kv_guards.append((prefix, guard))

    def _apply_guards(self, key: str, value: Any) -> Any:
        for prefix, guard in self._kv_guards:
            if key.startswith(prefix):
                value = guard(key, value)
        return value

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_map(self, kind: str):
        if kind == "mon":
            return self.monmap
        if kind == "osd":
            return self.osdmap
        if kind == "mds":
            return self.mdsmap
        raise InvalidArgument(f"unknown map kind {kind!r}")

    def kv_get(self, key: str) -> Dict[str, Any]:
        entry = self.kv.get(key)
        if entry is None:
            raise NotFound(f"service-metadata key {key!r} not found")
        return copy.deepcopy(entry)

    def kv_list(self, prefix: str = "") -> Dict[str, Dict[str, Any]]:
        return {k: copy.deepcopy(v) for k, v in self.kv.items()
                if k.startswith(prefix)}

    def log_tail(self, count: int) -> List[ClusterLogEntry]:
        if count <= 0:
            return []
        return list(self.cluster_log[-count:])

    # ------------------------------------------------------------------
    # Transaction application
    # ------------------------------------------------------------------
    def apply_batch(self, batch: List[Dict[str, Any]]) -> List[Any]:
        """Apply one committed batch; returns per-txn results.

        A transaction that fails validation yields its exception as the
        result rather than aborting the batch — the batch was already
        committed by consensus, so every replica must take the same
        deterministic path through it.
        """
        results: List[Any] = []
        for txn in batch:
            try:
                results.append(self._apply_one(txn))
            except (InvalidArgument, NotFound, NotPermitted) as exc:
                results.append(exc)
        return results

    def _apply_one(self, txn: Dict[str, Any]) -> Any:
        op = txn.get("op")
        if op == "kv_put":
            return self._kv_put(txn["key"], txn["value"])
        if op == "kv_del":
            self.kv.pop(txn["key"], None)
            return None
        if op == "map_update":
            return self._map_update(txn["kind"], txn["actions"])
        if op == "log":
            return self._log_append(txn["entry"])
        raise InvalidArgument(f"unknown monitor txn op {op!r}")

    def _kv_put(self, key: str, value: Any) -> int:
        # Copy before the guards run: every monitor applies the same
        # committed batch object, and a guard may edit what it is given.
        value = self._apply_guards(key, copy.deepcopy(value))
        entry = self.kv.get(key)
        version = (entry["version"] + 1) if entry else 1
        self.kv[key] = {"value": value, "version": version}
        return version

    def _log_append(self, entry: ClusterLogEntry) -> None:
        self.cluster_log.append(entry)
        if len(self.cluster_log) > self.MAX_LOG_ENTRIES:
            del self.cluster_log[: len(self.cluster_log) // 2]

    # ------------------------------------------------------------------
    # Map deltas
    # ------------------------------------------------------------------
    def _map_update(self, kind: str, actions: List[Dict[str, Any]]) -> int:
        # The successor is published only after every action applied.
        if kind == "osd":
            self.osdmap = self._next_osdmap(actions)
            return self.osdmap.epoch
        if kind == "mds":
            self.mdsmap = self._next_mdsmap(actions)
            return self.mdsmap.epoch
        raise InvalidArgument(f"cannot update map kind {kind!r}")

    def _next_osdmap(self, actions: List[Dict[str, Any]]) -> OSDMap:
        cur = self.osdmap
        m = OSDMap(cur.epoch + 1, cur.osds, cur.pools, cur.interfaces)
        for act in actions:
            what = act["action"]
            if what == "set_osd_state":
                m.osds[act["name"]] = act["state"]
            elif what == "create_pool":
                if act["name"] in m.pools:
                    raise InvalidArgument(f"pool {act['name']!r} exists")
                cfg = {
                    "size": act.get("size", 2),
                    "pg_num": act.get("pg_num", 64),
                }
                ec = act.get("ec")
                if ec is not None:
                    k, em = int(ec["k"]), int(ec["m"])
                    if k < 1 or em < 1:
                        raise InvalidArgument(f"bad EC profile {ec!r}")
                    cfg["ec"] = {"k": k, "m": em}
                    cfg["size"] = k + em  # acting set spans all shards
                backend = act.get("backend")
                cache = act.get("cache")
                if ec is not None and (backend is not None
                                       or cache is not None):
                    # EC pools have their own shard path; a local
                    # backend/cache tier would not see the shards.
                    raise InvalidArgument(
                        f"pool {act['name']!r}: 'ec' cannot be "
                        "combined with 'backend' or 'cache'")
                if backend is not None:
                    cfg["backend"] = normalize_backend(backend)
                if cache is not None:
                    cfg["cache"] = normalize_cache(cache)
                m.pools[act["name"]] = cfg
            elif what == "set_pool_pg_num":
                m.pools[act["name"]] = {**m.pool(act["name"]),
                                        "pg_num": act["pg_num"]}
            elif what == "set_interface":
                # Interface source is embedded in the map itself (the
                # paper's Lua scripts travel the same way, section
                # 6.1.2); keep sources small per monitor guidance.
                m.interfaces[act["name"]] = {
                    "version": act["version"],
                    "source": act["source"],
                    "category": act.get("category", "other"),
                }
            elif what == "remove_interface":
                m.interfaces.pop(act["name"], None)
            else:
                raise InvalidArgument(f"unknown osdmap action {what!r}")
        return m

    def _next_mdsmap(self, actions: List[Dict[str, Any]]) -> MDSMap:
        cur = self.mdsmap
        m = MDSMap(cur.epoch + 1, cur.ranks, cur.state, cur.balancer_version,
                   cur.lease_policy, cur.routing_mode, cur.subtrees)
        for act in actions:
            what = act["action"]
            if what == "set_rank":
                m.ranks[int(act["rank"])] = act["name"]
            elif what == "remove_rank":
                m.ranks.pop(int(act["rank"]), None)
            elif what == "set_state":
                m.state[act["name"]] = act["state"]
            elif what == "set_balancer_version":
                m.balancer_version = act["version"]
            elif what == "set_lease_policy":
                m.lease_policy = dict(act["policy"])
            elif what == "set_routing_mode":
                if act["mode"] not in ("client", "proxy"):
                    raise InvalidArgument(
                        f"bad routing mode {act['mode']!r}")
                m.routing_mode = act["mode"]
            elif what == "set_subtree_auth":
                m.subtrees[act["path"]] = int(act["rank"])
            elif what == "remove_subtree_auth":
                if act["path"] != "/":
                    m.subtrees.pop(act["path"], None)
            else:
                raise InvalidArgument(f"unknown mdsmap action {what!r}")
        return m

    # ------------------------------------------------------------------
    # Snapshots (for monitor restart)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Share the published maps and log entries; copy the containers
        this store keeps editing (the kv index and the log list)."""
        return {
            "monmap": self.monmap,
            "osdmap": self.osdmap,
            "mdsmap": self.mdsmap,
            "kv": dict(self.kv),
            "log": list(self.cluster_log),
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        self.monmap = snap["monmap"]
        self.osdmap = snap["osdmap"]
        self.mdsmap = snap["mdsmap"]
        self.kv = dict(snap["kv"])
        self.cluster_log = list(snap["log"])
