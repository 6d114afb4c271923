"""The monitor's replicated state machine: maps, KV store, cluster log.

Every committed Paxos value is a *batch* of transactions; applying a
batch is deterministic, so all monitors converge on identical state.
Transactions:

``{"op": "kv_put", "key": k, "value": v}``
    Service-metadata write; bumps the key's version.
``{"op": "kv_del", "key": k}``
``{"op": "map_update", "kind": "osd"|"mds", "actions": [...]}``
    Structured delta against a cluster map; bumps the map epoch once
    per transaction regardless of how many actions it carries.
``{"op": "log", "entry": {...}}``
    Centralized cluster-log append (paper section 5.1.3).
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

    def _log_append(self, entry_dict: Dict[str, Any]) -> None:
        entry = ClusterLogEntry.from_dict(entry_dict)
        self.cluster_log.append(entry)
        if len(self.cluster_log) > self.MAX_LOG_ENTRIES:
            del self.cluster_log[: len(self.cluster_log) // 2]

    # ------------------------------------------------------------------
    # Map deltas
    # ------------------------------------------------------------------
    def _map_update(self, kind: str, actions: List[Dict[str, Any]]) -> int:
        if kind == "osd":
            new_epoch = self._update_osdmap(actions)
        elif kind == "mds":
            new_epoch = self._update_mdsmap(actions)
        else:
            raise InvalidArgument(f"cannot update map kind {kind!r}")
        return new_epoch

    def _update_osdmap(self, actions: List[Dict[str, Any]]) -> int:
        m = self.osdmap
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
        m.epoch += 1
        return m.epoch

    def _update_mdsmap(self, actions: List[Dict[str, Any]]) -> int:
        m = self.mdsmap
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
        m.epoch += 1
        return m.epoch

    # ------------------------------------------------------------------
    # Snapshots (for monitor restart)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "monmap": self.monmap.to_dict(),
            "osdmap": self.osdmap.to_dict(),
            "mdsmap": self.mdsmap.to_dict(),
            "kv": dict(self.kv),
            "log": [e.to_dict() for e in self.cluster_log],
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        self.monmap = MonMap.from_dict(snap["monmap"])
        self.osdmap = OSDMap.from_dict(snap["osdmap"])
        self.mdsmap = MDSMap.from_dict(snap["mdsmap"])
        self.kv = dict(snap["kv"])
        self.cluster_log = [
            ClusterLogEntry.from_dict(d) for d in snap["log"]]
