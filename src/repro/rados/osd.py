"""The object storage daemon (OSD).

Implements RADOS's division of labor (paper sections 2 and 4.4):

* serves client object operations for PGs it leads, applying op lists
  transactionally and replicating resulting state to the acting set
  (primary-copy replication; the primary acks only after all live
  replicas ack);
* participates in peer-to-peer map gossip: epochs piggyback on every
  message, new maps are pushed to a random fanout of peers, so a map
  committed by the monitors reaches the whole cluster without the
  monitors contacting every OSD;
* dynamically installs object interface classes embedded in the OSD
  map (the Data I/O interface) — with a modelled install cost, which is
  what the Figure 8 propagation experiment measures;
* detects peer failures via pings and reports them to the monitors;
* re-replicates PGs when the acting set changes (recovery/backfill)
  and scrubs replicas for silent divergence.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    DaemonDown,
    InvalidArgument,
    MalacologyError,
    NotPrimary,
    TimeoutError_,
)
from repro.monitor.maps import OSDMap
from repro.monitor.monitor import MonitorClient
from repro.msg import Daemon, Envelope
from repro.objclass.bundled import register_all
from repro.objclass.registry import ClassRegistry
from repro.rados.erasure import ErasureCodec
from repro.rados.objects import StoredObject
from repro.rados.ops import apply_ops
from repro.rados.placement import acting_set, pg_of
from repro.sim.event import Timeout
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.store import CacheTier, LogStructuredStore, ObjectStore, \
    StoreFaultPlane, make_store

PgId = Tuple[str, int]  # (pool, pg)

#: Pools whose mutations never emit changelog records: the changelog's
#: own pool (self-feedback loop) and the metadata pool (the MDS already
#: emits the namespace-level record; its dir objects and journals would
#: only duplicate it at object granularity).
CHANGELOG_EXCLUDED_POOLS = frozenset({"changelog", "metadata"})


class OSD(Daemon, MonitorClient):
    """One object storage daemon."""

    PING_INTERVAL = 1.0
    PING_TIMEOUT = 0.5
    SCRUB_INTERVAL = 30.0
    #: Store-maintenance cadence (compaction, cache write-back).  The
    #: ticker is lazy: it only starts once this OSD hosts a store with
    #: ``needs_maintenance`` — pure-MemStore clusters schedule zero
    #: extra events, which is what keeps pre-refactor schedules
    #: byte-identical.
    STORE_TICK_INTERVAL = 1.0
    REPOP_TIMEOUT = 1.0
    #: Delay before retrying a rebalance whose pg_push was lost.
    REBALANCE_RETRY = 5.0
    GOSSIP_FANOUT = 3
    #: Modelled cost of making a new interface version live (loading the
    #: interpreter state, registering methods).  Median/sigma of a
    #: lognormal draw; this is the dominant term in Figure 8.
    INTERFACE_INSTALL_MEDIAN = 0.020
    INTERFACE_INSTALL_SIGMA = 0.6
    INTERFACE_INSTALL_CAP = 0.18

    def __init__(self, sim: Simulator, network: Network, name: str,
                 mon_names: List[str]):
        super().__init__(sim, network, name)
        self.init_mon_client(mon_names)
        # "Disk": survives crash/restart.  One ObjectStore per PG,
        # typed by the pool's backend/cache declaration (see
        # ``repro.store``); default pools get MemStore, the
        # pre-refactor semantics.
        self.pgs: Dict[PgId, ObjectStore] = {}
        self._store_ticker_started = False
        self.registry = ClassRegistry()
        register_all(self.registry)
        self._installed_versions: Dict[str, int] = {}
        self._install_rng = sim.rng(f"osd-install:{name}")
        self._gossip_rng = sim.rng(f"osd-gossip:{name}")
        self._reported_down: set = set()
        self._reasserting = False
        self._rebalance_retry_pending = False
        self._scrub_cursor = 0
        self.booted = False
        #: Bench hook: fn(class_name, version, sim_time) when an
        #: interface version becomes live on this OSD.
        self.interface_live_hook: Optional[
            Callable[[str, int, float], None]] = None
        #: Changelog producer shim (``repro.changelog.ChangelogProducer``)
        #: attached by ``cluster.enable_changelog``; None = no changelog.
        self.changelog: Optional[Any] = None
        self.perf.gauge_fn("pg.count", lambda: len(self.pgs))
        self.perf.gauge_fn(
            "object.count",
            lambda: sum(len(objs) for objs in self.pgs.values()))
        self.perf.gauge_fn("peers.reported_down",
                           lambda: len(self._reported_down))
        # Store-tier gauges feed the CACHE_TIER_FULL and
        # COMPACTION_STALLED health checks; None (skipped by the
        # exporter and the checks) when this OSD hosts no such store.
        self.perf.gauge_fn("store.cache.utilization",
                           self._gauge_cache_utilization)
        self.perf.gauge_fn("store.cache.dirty", self._gauge_cache_dirty)
        self.perf.gauge_fn("store.log.garbage_ratio",
                           self._gauge_log_garbage)
        self.perf.gauge_fn("store.log.compactions",
                           self._gauge_log_compactions)
        self.register_admin_command("store.status",
                                    self._admin_store_status)
        self.register_admin_command("scrub.trigger",
                                    self._admin_scrub_trigger)
        #: Chaos-engine fault plane (``repro.store.faults``); when set,
        #: it is consulted right before each costed commit (client
        #: write and repop).  The mapping plane is never checked.
        self.store_faults: Optional[StoreFaultPlane] = None

        rh = self.register_handler
        #: (pool, oid) -> set of watcher client names (volatile; clients
        #: re-watch after OSD failover, as librados watchers do).
        self.watchers: Dict[Tuple[str, str], set] = {}

        rh("osd_op", self._h_osd_op)
        rh("osd_repop", self._h_repop)
        rh("osd_ping", lambda src, p: "pong")
        rh("osd_map_push", self._h_map_push)
        rh("pg_push", self._h_pg_push)
        rh("pg_digest", self._h_pg_digest)
        #: EC shard store: (pool, oid, shard index) -> {"shard", "version"}.
        #: Kept outside the PG store: shard placement is by acting-set
        #: position, not by shard-oid hashing.
        self.ec_shards: Dict[Tuple[str, str, int], Dict[str, Any]] = {}

        rh("osd_watch", self._h_watch)
        rh("osd_unwatch", self._h_unwatch)
        rh("osd_watch_check", self._h_watch_check)
        rh("osd_notify", self._h_notify)
        rh("ec_shard_put", self._h_ec_shard_put)
        rh("ec_shard_get", self._h_ec_shard_get)
        rh("ec_shard_del", self._h_ec_shard_del)
        self.spawn(self._boot(), name=f"{self.name}:boot")

    # ------------------------------------------------------------------
    # Boot and map plumbing
    # ------------------------------------------------------------------
    def _boot(self) -> Generator:
        yield from self.mon_submit([{
            "op": "map_update", "kind": "osd",
            "actions": [{"action": "set_osd_state", "name": self.name,
                         "state": "up"}]}])
        # Fetch the post-boot map so we see ourselves up.
        m = yield from self.mon_get_map("osd")
        self._react_to_new_map(m)
        self.booted = True
        self.every(self.PING_INTERVAL, self._ping_tick,
                   name=f"{self.name}:ping")
        self.every(self.SCRUB_INTERVAL, self._scrub_tick,
                   name=f"{self.name}:scrub")
        # After a restart the surviving "disk" may already hold stores
        # with background duties (the ticker itself is volatile).
        if any(s.needs_maintenance for s in self.pgs.values()):
            self._ensure_store_ticker()

    @property
    def osdmap(self) -> Optional[OSDMap]:
        return self.cached_maps.get("osd")

    def stamp_epochs(self, env: Envelope) -> None:
        if self.osdmap is not None:
            env.epochs["osd"] = self.osdmap.epoch

    def observe_epochs(self, env: Envelope) -> None:
        peer_epoch = env.epochs.get("osd")
        if (peer_epoch is not None and self.osdmap is not None
                and peer_epoch > self.osdmap.epoch
                and env.src in self.osdmap.all_osds()):
            # Pull the newer map from the peer that advertised it.
            self.spawn(self._pull_map(env.src),
                       name=f"{self.name}:pullmap")

    def _pull_map(self, peer: str) -> Generator:
        try:
            m = yield self.call(peer, "osd_map_push", None, timeout=0.5)
        except MalacologyError:
            return
        if m is not None:
            self._maybe_adopt(m)

    def _h_map_push(self, src: str,
                    payload: Optional[OSDMap]) -> Optional[OSDMap]:
        """Both a getter (payload None) and a push (payload = map)."""
        if payload is None:
            return self.osdmap
        self._maybe_adopt(payload)
        return None

    def on_map_update(self, kind: str, new_map: Any) -> None:
        # Monitor push notification path (MonitorClient already updated
        # the cache with the newer map).
        if kind == "osd":
            self._react_to_new_map(new_map)

    def _maybe_adopt(self, m: OSDMap) -> None:
        current = self.osdmap
        if current is None or m.epoch > current.epoch:
            self.cached_maps["osd"] = m
            self._react_to_new_map(m)

    def _react_to_new_map(self, m: OSDMap) -> None:
        self._gossip_map(m)
        self._install_interfaces(m)
        self._reconcile_store_types(m)
        if (self.booted and self.alive and not self._reasserting
                and not m.is_up(self.name)):
            # A peer falsely reported us down (a missed ping under
            # packet loss or a gray slowdown).  Tell the monitors we
            # are still here, like Ceph's post-markdown boot message.
            self._reasserting = True
            self.spawn(self._reassert_up(), name=f"{self.name}:reassert")
        self.spawn(self._rebalance_pgs(), name=f"{self.name}:rebalance")

    def _reassert_up(self) -> Generator:
        try:
            yield from self.mon_submit([{
                "op": "map_update", "kind": "osd",
                "actions": [{"action": "set_osd_state",
                             "name": self.name, "state": "up"}]}])
            m = yield from self.mon_get_map("osd")
            self._react_to_new_map(m)
        except MalacologyError:
            pass  # map flow will trigger another attempt
        finally:
            self._reasserting = False

    # ------------------------------------------------------------------
    # Gossip (paper section 4.4 / Figure 8)
    # ------------------------------------------------------------------
    def _gossip_map(self, m: OSDMap) -> None:
        peers = [o for o in m.up_osds() if o != self.name]
        if not peers:
            return
        fanout = min(self.GOSSIP_FANOUT, len(peers))
        for peer in self._gossip_rng.sample(peers, fanout):
            # osd_map_push is dual-use: MonitorClient call()s it to
            # fetch a map (reply consumed), gossip cast()s it to push
            # one (reply meaningless by design).
            self.cast(peer, "osd_map_push", m)  # mal: disable=MAL015 -- dual getter/push handler; gossip needs no reply

    # ------------------------------------------------------------------
    # Dynamic interface installation (Data I/O interface)
    # ------------------------------------------------------------------
    def _install_interfaces(self, m: OSDMap) -> None:
        for name in [n for n in self._installed_versions
                     if n not in m.interfaces]:
            # Uninstalled from the map: stop serving it.  Dropping the
            # version also voids an install still in flight.
            del self._installed_versions[name]
            self.registry.remove_dynamic(name)
        for name, entry in m.interfaces.items():
            if self._installed_versions.get(name, -1) >= entry["version"]:
                continue
            self._installed_versions[name] = entry["version"]
            self.spawn(
                self._install_one(name, entry),
                name=f"{self.name}:install:{name}")

    def _install_one(self, name: str, entry: Dict[str, Any]) -> Generator:
        delay = min(self.INTERFACE_INSTALL_CAP,
                    self._install_rng.lognormvariate(
                        _ln(self.INTERFACE_INSTALL_MEDIAN),
                        self.INTERFACE_INSTALL_SIGMA))
        yield Timeout(delay)
        if (not self.alive or self._installed_versions.get(name, -1)
                < entry["version"]):
            return  # crashed, or the map removed it meanwhile
        try:
            self.registry.install_dynamic(
                name, entry["version"], entry["source"],
                category=entry.get("category", "other"))
            self.perf.incr("interface.install")
        except MalacologyError as exc:
            self.spawn(self.mon_log("ERR",
                                    f"interface {name} install failed: "
                                    f"{exc}"),
                       name=f"{self.name}:logerr")
            return
        if self.interface_live_hook is not None:
            self.interface_live_hook(name, entry["version"], self.sim.now)

    # ------------------------------------------------------------------
    # Per-PG object stores (repro.store)
    # ------------------------------------------------------------------
    def _pg_store(self, pool: str, pgid: int) -> ObjectStore:
        """The PG's store, created on first touch from the pool config."""
        key = (pool, pgid)
        store = self.pgs.get(key)
        if store is None:
            store = self._build_store(self._pool_cfg(pool))
            self.pgs[key] = store
            if store.needs_maintenance:
                self._ensure_store_ticker()
        return store

    def _pool_cfg(self, pool: str) -> Dict[str, Any]:
        m = self.osdmap
        if m is None or pool not in m.pools:
            # No map yet (e.g. a push raced our boot): default store;
            # _reconcile_store_types migrates it once the map lands.
            return {}
        return m.pool(pool)

    def _build_store(self, cfg: Dict[str, Any]) -> ObjectStore:
        if "ec" in cfg:
            # EC pools keep plain manifests locally; the shard path is
            # its own subsystem and never combines with a backend.
            return make_store(None, None, perf=self.perf)
        return make_store(cfg.get("backend"), cfg.get("cache"),
                          perf=self.perf)

    @staticmethod
    def _store_matches(store: ObjectStore, cfg: Dict[str, Any]) -> bool:
        backend = None if "ec" in cfg else cfg.get("backend")
        cache = None if "ec" in cfg else cfg.get("cache")
        if isinstance(store, CacheTier) != (cache is not None):
            return False
        base = store.base if isinstance(store, CacheTier) else store
        if backend is None:
            want = "memstore"
        elif isinstance(backend, str):
            want = backend
        else:
            want = backend.get("profile", "memstore")
        return base.profile == want

    def _reconcile_store_types(self, m: OSDMap) -> None:
        """Re-type any PG store that predates its pool's map entry.

        Runs synchronously on map adoption (no events, no RNG): when a
        push raced boot and a PG was materialized with the default
        store, migrate its objects — sorted-oid order — into the
        declared backend.  A no-op on every already-correct store.
        """
        for key in sorted(self.pgs):
            pool, _pgid = key
            if pool not in m.pools:
                continue
            cfg = m.pool(pool)
            store = self.pgs[key]
            if self._store_matches(store, cfg):
                continue
            replacement = self._build_store(cfg)
            for oid in sorted(store):
                replacement[oid] = store[oid]
            self.pgs[key] = replacement
            if replacement.needs_maintenance:
                self._ensure_store_ticker()

    def _ensure_store_ticker(self) -> None:
        if self._store_ticker_started or not self.alive:
            return
        self._store_ticker_started = True
        self.every(self.STORE_TICK_INTERVAL, self._store_tick,
                   name=f"{self.name}:store")

    def _store_tick(self) -> None:
        for key in sorted(self.pgs):
            store = self.pgs[key]
            if store.needs_maintenance:
                store.maintenance(self.sim.now)

    def _admin_store_status(self, args: Any) -> Dict[str, Any]:
        """``store.status``: per-PG backend status, optional pool filter."""
        pool_filter = (args or {}).get("pool")
        pgs = {}
        for pool, pgid in sorted(self.pgs):
            if pool_filter is not None and pool != pool_filter:
                continue
            pgs[f"{pool}/{pgid}"] = self.pgs[(pool, pgid)].status()
        return {
            "name": self.name,
            "pgs": pgs,
            "profiles": sorted({s["profile"] for s in pgs.values()}),
        }

    # -- health-check gauges -------------------------------------------
    def _cache_tiers(self) -> List[CacheTier]:
        out = []
        for _, s in sorted(self.pgs.items()):
            if isinstance(s, CacheTier):
                out.append(s)
        return out

    def _log_stores(self) -> List[LogStructuredStore]:
        out = []
        for _, s in sorted(self.pgs.items()):
            if isinstance(s, CacheTier):
                s = s.base
            if isinstance(s, LogStructuredStore):
                out.append(s)
        return out

    def _gauge_cache_utilization(self) -> Optional[float]:
        tiers = self._cache_tiers()
        return max(t.utilization() for t in tiers) if tiers else None

    def _gauge_cache_dirty(self) -> Optional[int]:
        tiers = self._cache_tiers()
        return sum(t.dirty_count() for t in tiers) if tiers else None

    def _gauge_log_garbage(self) -> Optional[float]:
        stores = self._log_stores()
        if not stores:
            return None
        return max(s.eligible_garbage_ratio() for s in stores)

    def _gauge_log_compactions(self) -> Optional[int]:
        stores = self._log_stores()
        return sum(s.compactions for s in stores) if stores else None

    # ------------------------------------------------------------------
    # Client I/O path
    # ------------------------------------------------------------------
    def _h_osd_op(self, src: str, payload: Dict[str, Any]) -> Generator:
        pool = payload["pool"]
        oid = payload["oid"]
        ops = payload["ops"]
        m = self.osdmap
        if m is None or not self.booted:
            raise DaemonDown(f"{self.name} still booting")
        if pool not in m.pools:
            raise InvalidArgument(f"pool {pool!r} does not exist")
        pgid = pg_of(oid, m.pool(pool)["pg_num"])
        acting = acting_set(m, pool, pgid)
        if not acting or acting[0] != self.name:
            self.perf.incr("op.not_primary")
            raise NotPrimary(
                f"{self.name} is not primary for {pool}/{pgid} "
                f"(epoch {m.epoch})")
        self.perf.incr("op.in")
        for op in ops:
            if op.get("op") == "exec":
                # Per-objclass accounting: the paper's argument is that
                # co-designed interfaces live *in* the OSD; count them
                # where they run.
                self.perf.incr(
                    f"objclass.{op.get('cls')}.{op.get('method')}")
            else:
                self.perf.incr(f"osdop.{op.get('op')}")
        if "ec" in m.pool(pool):
            result = yield from self._ec_op(pool, pgid, oid, ops,
                                            acting, m.pool(pool)["ec"])
            return result
        store = self._pg_store(pool, pgid)
        obj, read_delay = store.fetch(oid)
        if read_delay > 0:
            # Modeled media service time; MemStore charges 0.0, so
            # default pools add no events here (schedule identity).
            yield Timeout(read_delay)
        results, new_obj, removed = apply_ops(
            obj, oid, ops, self.registry,
            epoch=payload.get("epoch"), now=self.sim.now)
        san = self.sim.sanitizers
        if san is not None:
            # The transaction was *accepted*; the epoch-fencing
            # sanitizer checks no stale-epoch zlog op slipped through.
            san.zlog.observe_ops(pool, oid, ops, daemon=self)
        mutated = (removed
                   or (new_obj is not None
                       and (obj is None or new_obj.version != obj.version)))
        if mutated:
            if removed:
                write_delay = store.discard(oid)
            else:
                assert new_obj is not None
                if self.store_faults is not None:
                    self.store_faults.on_commit(self.name, store, new_obj)
                write_delay = store.commit(new_obj)
            if write_delay > 0:
                yield Timeout(write_delay)
            if (self.changelog is not None
                    and pool not in CHANGELOG_EXCLUDED_POOLS):
                self.changelog.emit("object_write", src, pool=pool,
                                    oid=oid, removed=removed)
            yield from self._replicate(pool, pgid, oid, acting[1:],
                                       new_obj, removed)
        return results

    def _replicate(self, pool: str, pgid: int, oid: str,
                   replicas: List[str], new_obj: Optional[StoredObject],
                   removed: bool) -> Generator:
        if not replicas:
            return
        payload = {
            "pool": pool, "pg": pgid, "oid": oid,
            "state": None if removed else new_obj,
            "removed": removed,
        }
        self.perf.incr("repop.tx", len(replicas))
        futs = [self.call(r, "osd_repop", payload,
                          timeout=self.REPOP_TIMEOUT) for r in replicas]
        for rep, fut in zip(replicas, futs):
            try:
                yield fut
            except (TimeoutError_, DaemonDown):
                # Degraded write: continue, and make sure the monitor
                # hears about the unresponsive replica.
                self.spawn(self._report_failure(rep),
                           name=f"{self.name}:report")
            except NotPrimary:
                pass  # replica has a newer map; rebalance will fix us

    def _h_repop(self, src: str, payload: Dict[str, Any]) -> Any:
        m = self.osdmap
        pool, pgid = payload["pool"], payload["pg"]
        if m is not None:
            acting = acting_set(m, pool, pgid)
            if src != (acting[0] if acting else None):
                raise NotPrimary(
                    f"{src} is not primary for {pool}/{pgid} by "
                    f"epoch {m.epoch}")
        self.perf.incr("repop.rx")
        store = self._pg_store(pool, pgid)
        if payload["removed"]:
            delay = store.discard(payload["oid"])
        else:
            if self.store_faults is not None:
                self.store_faults.on_commit(self.name, store,
                                            payload["state"])
            delay = store.commit(payload["state"])
        if delay > 0:
            # Non-default backends charge their write cost before the
            # ack; MemStore returns 0.0 and the reply stays synchronous.
            return self._ack_after(delay)
        return True

    def _ack_after(self, delay: float) -> Generator:
        yield Timeout(delay)
        return True

    # ------------------------------------------------------------------
    # Recovery / backfill
    # ------------------------------------------------------------------
    def _rebalance_pgs(self) -> Generator:
        """Push PG state to new acting members; drop PGs we left.

        Runs on every map change.  Merging is by per-object version, so
        races between concurrent pushers converge.
        """
        m = self.osdmap
        if m is None:
            return
        self._split_pgs(m)
        for (pool, pgid), objects in list(self.pgs.items()):
            if pool not in m.pools:
                continue
            acting = acting_set(m, pool, pgid)
            if not objects and self.name not in acting:
                # pop, not del: a concurrent rebalance (retry or a
                # newer map's run) may have dropped the key already.
                self.pgs.pop((pool, pgid), None)
                continue
            if not objects:
                continue
            targets = [o for o in acting if o != self.name]
            payload = {"pool": pool, "pg": pgid, "objects": dict(objects)}
            acked = True
            for target in targets:
                try:
                    self.perf.incr("recovery.push")
                    yield self.call(target, "pg_push", payload,
                                    timeout=self.REPOP_TIMEOUT)
                except MalacologyError:
                    acked = False
            # The map may have advanced while the pushes were in
            # flight (each one yields); re-check membership against
            # the *current* map before letting local data go, or a
            # slow push ack can delete a PG this OSD just re-joined.
            current = self.osdmap
            if current is not None and pool in current.pools:
                cur_acting = acting_set(current, pool, pgid)
            else:
                cur_acting = acting
            covered = set(cur_acting) - {self.name} <= set(targets)
            if (self.name not in cur_acting and acked and targets
                    and covered):
                # We are out of the acting set and the data is safely
                # elsewhere; let it go.
                self.pgs.pop((pool, pgid), None)
            elif not acked or not covered:
                # A push was lost: until the next map change nothing
                # else revisits this PG, so an ex-member could strand
                # acked data forever.  Re-arm one delayed retry.
                self._schedule_rebalance_retry()

    def _schedule_rebalance_retry(self) -> None:
        if self._rebalance_retry_pending or not self.alive:
            return
        self._rebalance_retry_pending = True
        self.spawn(self._rebalance_retry(),
                   name=f"{self.name}:rebalance-retry")

    def _rebalance_retry(self) -> Generator:
        yield Timeout(self.REBALANCE_RETRY)
        self._rebalance_retry_pending = False
        if self.alive:
            yield from self._rebalance_pgs()

    def _split_pgs(self, m) -> None:
        """Placement-group splitting (paper section 4.4).

        When a pool's pg_num changes, objects re-hash into new PGs;
        each OSD re-shards its local store and the normal rebalance
        push then converges the cluster on the new layout, all in the
        background and peer-to-peer — the monitors only changed a
        number in the map.
        """
        for (pool, pgid), objects in list(self.pgs.items()):
            if pool not in m.pools:
                continue
            pg_num = m.pool(pool)["pg_num"]
            for oid in list(objects):
                new_pg = pg_of(oid, pg_num)
                if new_pg != pgid:
                    self._pg_store(pool, new_pg)[oid] = objects.pop(oid)

    def _h_pg_push(self, src: str, payload: Dict[str, Any]) -> bool:
        self.perf.incr("recovery.rx")
        pg = self._pg_store(payload["pool"], payload["pg"])
        force = payload.get("force", False)
        for oid, incoming in payload["objects"].items():
            current = pg.get(oid)
            # Normal backfill merges by version; scrub repair forces the
            # primary's state in (silent corruption keeps the version).
            if force or current is None or incoming.version > current.version:
                pg[oid] = incoming
        return True

    # ------------------------------------------------------------------
    # Erasure-coded pools (paper section 4.4)
    # ------------------------------------------------------------------
    #: Ops an EC pool supports.  Like Ceph's EC pools: bytestream only —
    #: no omap, no xattr mutation, no object-class execution.
    EC_ALLOWED_OPS = frozenset({"create", "assert_exists", "write_full",
                                "read", "stat", "remove"})

    def _ec_op(self, pool: str, pgid: int, oid: str,
               ops: List[Dict[str, Any]], acting: List[str],
               profile: Dict[str, int]) -> Generator:
        for op in ops:
            if op.get("op") not in self.EC_ALLOWED_OPS:
                raise InvalidArgument(
                    f"EC pool {pool!r} does not support op "
                    f"{op.get('op')!r} (bytestream only)")
        codec = ErasureCodec(profile["k"], profile["m"])
        pg = self._pg_store(pool, pgid)
        manifest = pg.get(oid)
        base: Optional[StoredObject] = None
        if manifest is not None:
            data = yield from self._ec_gather(pool, oid, codec, acting,
                                              manifest)
            base = StoredObject(oid)
            base.write(0, data)
            base.version = manifest.xattrs.get("ec.version", 0)
        results, new_obj, removed = apply_ops(
            base, oid, ops, self.registry, now=self.sim.now)
        mutated = (removed or (new_obj is not None and (
            base is None or new_obj.version != base.version)))
        if not mutated:
            return results
        if removed:
            pg.pop(oid, None)
            for i, member in enumerate(acting):
                self.cast(member, "ec_shard_del",
                          {"pool": pool, "oid": oid, "index": i})
            return results
        assert new_obj is not None
        data = bytes(new_obj.data)
        version = (manifest.xattrs.get("ec.version", 0) + 1
                   if manifest is not None else 1)
        shards = codec.encode(data)
        futs = []
        for i, member in enumerate(acting):
            payload = {"pool": pool, "oid": oid, "index": i,
                       "shard": shards[i], "version": version}
            if member == self.name:
                self._h_ec_shard_put(self.name, payload)
            else:
                futs.append((member, self.call(
                    member, "ec_shard_put", payload,
                    timeout=self.REPOP_TIMEOUT)))
        for member, fut in futs:
            try:
                yield fut
            except (TimeoutError_, DaemonDown):
                self.spawn(self._report_failure(member),
                           name=f"{self.name}:report")
        new_manifest = StoredObject(oid)
        new_manifest.xattr_set("ec.size", len(data))
        new_manifest.xattr_set("ec.version", version)
        pg[oid] = new_manifest
        return results

    def _ec_gather(self, pool: str, oid: str, codec, acting: List[str],
                   manifest: StoredObject) -> Generator:
        """Collect any k shards (tolerating m losses) and reconstruct."""
        length = manifest.xattrs.get("ec.size", 0)
        version = manifest.xattrs.get("ec.version", 0)
        shards: Dict[int, bytes] = {}
        mine = self.ec_shards.get((pool, oid, acting.index(self.name))) \
            if self.name in acting else None
        if mine is not None and mine["version"] == version:
            shards[acting.index(self.name)] = mine["shard"]
        for i, member in enumerate(acting):
            if len(shards) >= codec.k:
                break
            if i in shards or member == self.name:
                continue
            try:
                reply = yield self.call(
                    member, "ec_shard_get",
                    {"pool": pool, "oid": oid, "index": i},
                    timeout=self.REPOP_TIMEOUT)
            except MalacologyError:
                continue
            if reply is not None and reply["version"] == version:
                shards[i] = reply["shard"]
        return codec.decode(shards, length)

    def _h_ec_shard_put(self, src: str, payload: Dict[str, Any]) -> bool:
        key = (payload["pool"], payload["oid"], payload["index"])
        current = self.ec_shards.get(key)
        if current is None or payload["version"] > current["version"]:
            self.ec_shards[key] = {"shard": payload["shard"],
                                   "version": payload["version"]}
        return True

    def _h_ec_shard_get(self, src: str,
                        payload: Dict[str, Any]) -> Optional[Dict]:
        entry = self.ec_shards.get(
            (payload["pool"], payload["oid"], payload["index"]))
        return entry

    def _h_ec_shard_del(self, src: str, payload: Dict[str, Any]) -> None:
        self.ec_shards.pop(
            (payload["pool"], payload["oid"], payload["index"]), None)

    # ------------------------------------------------------------------
    # Watch / notify
    # ------------------------------------------------------------------
    def _require_primary(self, pool: str, oid: str) -> None:
        m = self.osdmap
        if m is None or pool not in m.pools:
            raise InvalidArgument(f"pool {pool!r} unknown")
        pgid = pg_of(oid, m.pool(pool)["pg_num"])
        acting = acting_set(m, pool, pgid)
        if not acting or acting[0] != self.name:
            raise NotPrimary(f"{self.name} not primary for {pool}/{oid}")

    def _h_watch(self, src: str, payload: Dict[str, Any]) -> bool:
        """Register the caller for notifications on one object.

        Watches are volatile (lost on OSD failover, like librados
        watch sessions) — clients re-establish after errors.
        """
        self._require_primary(payload["pool"], payload["oid"])
        key = (payload["pool"], payload["oid"])
        self.watchers.setdefault(key, set()).add(src)
        return True

    def _h_unwatch(self, src: str, payload: Dict[str, Any]) -> bool:
        key = (payload["pool"], payload["oid"])
        entry = self.watchers.get(key)
        if entry is not None:
            entry.discard(src)
            if not entry:
                del self.watchers[key]
        return True

    def _h_watch_check(self, src: str, payload: Dict[str, Any]) -> bool:
        """Is the caller currently registered as a watcher here?

        Clients' auto-re-watch guard probes this cheaply; ``False``
        (or ``NotPrimary`` after a failover) tells the client its watch
        session died and must be re-established.
        """
        self._require_primary(payload["pool"], payload["oid"])
        key = (payload["pool"], payload["oid"])
        return src in self.watchers.get(key, ())

    def _h_notify(self, src: str, payload: Dict[str, Any]) -> int:
        """Fan a notification out to every watcher; returns the count."""
        self._require_primary(payload["pool"], payload["oid"])
        key = (payload["pool"], payload["oid"])
        targets = sorted(self.watchers.get(key, ()))
        for watcher in targets:
            self.cast(watcher, "watch_event", {
                "pool": payload["pool"], "oid": payload["oid"],
                "payload": payload.get("payload"), "notifier": src,
            })
        return len(targets)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def _ping_tick(self) -> Optional[Generator]:
        m = self.osdmap
        if m is None:
            return None
        peers = [o for o in m.up_osds() if o != self.name]
        if not peers:
            return None
        target = self._gossip_rng.choice(peers)
        return self._ping_one(target)

    def _ping_one(self, target: str) -> Generator:
        try:
            yield self.call(target, "osd_ping", None,
                            timeout=self.PING_TIMEOUT)
            self._reported_down.discard(target)
        except (TimeoutError_, DaemonDown):
            yield from self._report_failure(target)

    def _report_failure(self, target: str) -> Generator:
        m = self.osdmap
        if m is None or not m.is_up(target):
            return
        if target in self._reported_down:
            return
        self._reported_down.add(target)
        try:
            yield from self.mon_submit([{
                "op": "map_update", "kind": "osd",
                "actions": [{"action": "set_osd_state", "name": target,
                             "state": "down"}]}])
        except MalacologyError:
            self._reported_down.discard(target)

    # ------------------------------------------------------------------
    # Scrub
    # ------------------------------------------------------------------
    def _scrub_tick(self) -> Optional[Generator]:
        m = self.osdmap
        if m is None or not self.pgs:
            return None
        keys = sorted(self.pgs)
        key = keys[self._scrub_cursor % len(keys)]
        self._scrub_cursor += 1
        pool, pgid = key
        acting = acting_set(m, pool, pgid)
        if not acting or acting[0] != self.name:
            return None
        return self._scrub_pg(pool, pgid, acting[1:])

    def _scrub_pg(self, pool: str, pgid: int,
                  replicas: List[str]) -> Generator:
        self.perf.incr("scrub.run")
        mine = {oid: obj.digest()
                for oid, obj in self.pgs.get((pool, pgid), {}).items()}
        for rep in replicas:
            try:
                theirs = yield self.call(rep, "pg_digest",
                                         {"pool": pool, "pg": pgid},
                                         timeout=self.REPOP_TIMEOUT)
            except MalacologyError:
                continue
            if theirs != mine:
                # Repair by re-pushing authoritative (primary) state.
                yield from self._repair_replica(pool, pgid, rep)

    def _repair_replica(self, pool: str, pgid: int, rep: str) -> Generator:
        payload = {"pool": pool, "pg": pgid, "force": True,
                   "objects": dict(self.pgs.get((pool, pgid), {}))}
        try:
            yield self.call(rep, "pg_push", payload,
                            timeout=self.REPOP_TIMEOUT)
            self.perf.incr("scrub.repair")
            yield from self.mon_log(
                "WRN", f"scrub repaired {pool}/{pgid} on {rep}")
        except MalacologyError:
            return

    def _h_pg_digest(self, src: str, payload: Dict[str, Any]) -> Dict:
        pg = self.pgs.get((payload["pool"], payload["pg"]), {})
        return {oid: obj.digest() for oid, obj in pg.items()}

    def _admin_scrub_trigger(self, args: Any) -> Dict[str, Any]:
        """``scrub.trigger``: scrub every PG this OSD leads, now.

        The periodic ticker visits one PG per 30s tick; chaos runs
        need all replicas verified before their oracles read the end
        state.  Spawns one scrub per led PG (optional ``pool`` filter)
        and returns how many were started; callers run the sim to let
        them finish.
        """
        m = self.osdmap
        pool_filter = (args or {}).get("pool")
        started = 0
        if m is not None and self.alive:
            for pool, pgid in sorted(self.pgs):
                if pool_filter is not None and pool != pool_filter:
                    continue
                acting = acting_set(m, pool, pgid)
                if not acting or acting[0] != self.name:
                    continue
                self.spawn(self._scrub_pg(pool, pgid, acting[1:]),
                           name=f"{self.name}:scrub-trigger")
                started += 1
        return {"name": self.name, "scrubs_started": started}

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()  # telemetry is volatile
        # pgs (disk) survive; everything else is volatile.
        self.booted = False
        self._store_ticker_started = False  # ticker proc died with us
        self.watchers = {}
        self._reported_down = set()
        self._reasserting = False  # the spawned procs died with us
        self._rebalance_retry_pending = False
        self.cached_maps.pop("osd", None)
        # Dynamic classes live in memory: reload on restart from the map.
        self._installed_versions = {}
        self.registry = ClassRegistry()
        register_all(self.registry)

    def on_restart(self) -> None:
        if self.changelog is not None:
            # New incarnation: fresh producer identity so the shard
            # class never mistakes the reset pseq counter for replays.
            self.changelog.on_daemon_restart()
        self.spawn(self._boot(), name=f"{self.name}:reboot")


def _ln(x: float) -> float:
    import math

    return math.log(x)
