"""The metadata server daemon.

One MDS daemon holds one *rank* of the metadata cluster and is
authoritative for the namespace subtrees the MDS map assigns to that
rank.  It implements:

* POSIX-ish namespace operations (mkdir/create/stat/readdir/unlink)
  with write-through persistence to RADOS (one object per directory);
* the **File Type** execution path (``ftype_exec``): server-side
  operations on an inode's embedded state — the round-trip sequencer;
* the **Shared Resource** capability protocol: exclusive cacheable
  grants with policy-driven cooperative revocation, including the
  holder-death timeout;
* request routing after migration: ``proxy`` mode forwards to the
  owner and relays; ``client`` mode redirects (Figure 11);
* subtree export/import — the migration mechanism Mantle's policies
  drive (section 4.3.3);
* load accounting and peer load gossip for the balancer.

Processing cost model: the MDS is a single-server queue.  Every
request consumes the service time its op declares in ``MDS._OPS`` on
the daemon's virtual CPU (:meth:`_serve`), so throughput saturates and
migration genuinely relieves load — the effect Figures 9-12 measure.
"""

from __future__ import annotations

import copy
from types import GeneratorType
from typing import Any, Dict, Generator, List, Optional, Set, Union

from repro.errors import (
    AlreadyExists,
    CapRevoked,
    InvalidArgument,
    MalacologyError,
    NotFound,
    TryAgain,
    WrongMDS,
)
from repro.mds.capability import Capability, LeasePolicy, Locker
from repro.mds.inode import DIR, FILE, Inode, InoAllocator, ROOT_INO
from repro.mds.metrics import LoadTracker
from repro.mds.namespace import (
    NamespaceCache,
    basename,
    dir_object_id,
    parent_of,
    under,
    validate_path,
)
from repro.monitor.maps import MDSMap
from repro.msg import Daemon
from repro.rados.client import RadosClient
from repro.sim.event import Future, Timeout
from repro.sim.kernel import Simulator
from repro.sim.network import Network

#: Pool that holds directory objects, journals, and balancer policies.
METADATA_POOL = "metadata"


class MDS(Daemon, RadosClient):
    """One metadata server daemon."""

    # Service-time model (simulated seconds per request kind).
    #
    # File Type operations decompose the way section 6.2 describes:
    # "(1) the handling of the client requests and (2) finding the tail
    # of the log and responding to clients.  Doing both steps is too
    # heavyweight for one server."  A direct request pays RECEIVE +
    # PROCESS on one daemon; a forwarded request pays RECEIVE + FORWARD
    # at the proxy and only PROCESS at the owner — which is why Proxy
    # Mode (Full) pipelines better than any single server.  When client
    # sessions are spread across several MDSs, each direct request also
    # pays COHERENCE for the scatter-gather cache-coherence chatter the
    # paper blames for client mode's lower cluster throughput (6.2.1).
    COST_LOOKUP = 100e-6
    COST_MUTATE = 250e-6
    COST_RECEIVE = 200e-6
    COST_PROCESS = 200e-6
    COST_COHERENCE = 300e-6
    COST_FORWARD = 50e-6
    COST_CAP = 200e-6
    #: A peer MDS counts as "serving clients" while its gossiped direct
    #: request rate exceeds this (decayed ops).
    DIRECT_RATE_FLOOR = 5.0

    LOAD_GOSSIP_INTERVAL = 1.0
    BALANCE_INTERVAL = 10.0
    CAP_REVOKE_TIMEOUT = 2.0
    FORWARD_TIMEOUT = 10.0
    MIGRATION_CAP_WAIT = 1.0
    #: Metadata mutations are journaled to a per-rank RADOS object via
    #: the bundled ``log`` object class — the MDS is itself a consumer
    #: of the Data I/O interface.  The journal is an ordered audit/
    #: replay record; directory objects remain the authoritative state.
    JOURNAL_TRIM_INTERVAL = 60.0
    JOURNAL_TRIM_BATCH = 200

    def __init__(self, sim: Simulator, network: Network, name: str,
                 mon_names: List[str], rank: int):
        super().__init__(sim, network, name)
        self.init_mon_client(mon_names)
        self.rank = rank
        self.ns = NamespaceCache()
        self.locker = Locker()
        self.tracker = LoadTracker()
        self.allocator = InoAllocator(rank)
        self._cpu_free_at = 0.0
        self._frozen: Set[str] = set()
        self.peer_loads: Dict[int, Dict[str, Any]] = {}
        #: Pluggable balancer (a ``repro.mantle.balancer.MantleBalancer``);
        #: None means no balancing at all.
        self.balancer: Optional[Any] = None
        self.booted = False
        #: Changelog producer shim (``repro.changelog.ChangelogProducer``)
        #: attached by ``cluster.enable_changelog``; None = no changelog.
        self.changelog: Optional[Any] = None
        #: Seconds of queued CPU work ahead of a request arriving now.
        self.perf.gauge_fn(
            "cpu.backlog",
            lambda: max(0.0, self._cpu_free_at - self.sim.now))
        # Health-facing gauges.  All pure reads: ``peek`` leaves the
        # decay counters' float state untouched, so how often the mgr
        # samples this MDS can never alter its balancing decisions.
        self.perf.gauge_fn(
            "mds.load",
            lambda: self.tracker.requests.peek(self.sim.now))
        self.perf.gauge_fn("ns.inodes", lambda: self.ns.inode_count())
        self.perf.gauge_fn("caps.revoking",
                           lambda: self.locker.revoking_count())

        rh = self.register_handler
        rh("mds_req", self._h_request)
        rh("mds_import", self._h_import)
        rh("mds_load", self._h_load)
        self.spawn(self._boot(), name=f"{self.name}:boot")

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def _boot(self) -> Generator:
        yield from self.mon_subscribe(["mds", "osd"])
        yield from self.mon_get_map("osd")
        yield from self.mon_submit([{
            "op": "map_update", "kind": "mds",
            "actions": [
                {"action": "set_rank", "rank": self.rank,
                 "name": self.name},
                {"action": "set_state", "name": self.name, "state": "up"},
            ]}])
        yield from self.mon_get_map("mds")
        if self.rank == 0 and not self.ns.has("/"):
            root = Inode(ROOT_INO, DIR)
            self.ns.add("/", root)
        yield from self._recover_owned_subtrees()
        self.every(self.LOAD_GOSSIP_INTERVAL, self._gossip_load,
                   name=f"{self.name}:load")
        self.every(self.BALANCE_INTERVAL, self._balance_tick,
                   name=f"{self.name}:balance")
        self.every(self.JOURNAL_TRIM_INTERVAL,
                   lambda: self._journal_trim_tick(),
                   name=f"{self.name}:jtrim")
        self.booted = True

    @property
    def mdsmap(self) -> Optional[MDSMap]:
        return self.cached_maps.get("mds")

    def _recover_owned_subtrees(self) -> Generator:
        """Reload authoritative subtrees from RADOS after a (re)start."""
        m = self.mdsmap
        if m is None:
            return
        for prefix, rank in sorted(m.subtrees.items()):
            if rank != self.rank:
                continue
            if prefix == "/":
                # The root inode is synthesized; its children live in
                # the root dir object.
                yield from self._load_children("/")
            elif not self.ns.has(prefix):
                yield from self._load_dir_chain(prefix)

    def _load_dir_chain(self, path: str) -> Generator:
        """Populate the cache for ``path`` and everything beneath it."""
        try:
            entries = yield from self.rados_op(
                METADATA_POOL, dir_object_id(parent_of(path)),
                [{"op": "omap_get", "key": basename(path)}])
        except MalacologyError:
            return
        if not self.ns.has(path):
            self.ns.install_subtree({path: entries[0]})
        yield from self._load_children(path)

    def _load_children(self, path: str) -> Generator:
        try:
            listing = yield from self.rados_op(
                METADATA_POOL, dir_object_id(path), [{"op": "omap_list"}])
        except MalacologyError:
            return
        for name, record in listing[0]:
            child = f"{path}/{name}" if path != "/" else f"/{name}"
            if not self.ns.has(child):
                self.ns.install_subtree({child: record})
            if record["kind"] == DIR:
                yield from self._load_children(child)

    # ------------------------------------------------------------------
    # Service model
    # ------------------------------------------------------------------
    def _serve(self, cost: float, path: Optional[str], *,
               counted: bool = True, queued: bool = True) -> Generator:
        """The one service step: pay ``cost`` seconds, then record load.

        ``queued`` work waits its turn on this daemon's FIFO virtual
        CPU; a proxy relay pays ``cost`` as a plain delay off it.  The
        record feeds Mantle's ``load`` and ``cpu``, and inode popularity
        unless ``path`` is None.
        """
        if queued:
            self._cpu_free_at = max(self.sim.now, self._cpu_free_at) + cost
            wait = self._cpu_free_at - self.sim.now
        else:
            wait = cost
        if wait > 0:
            yield Timeout(wait)
        if counted:
            self.tracker.record_request(self.sim.now, path, cost)

    # ------------------------------------------------------------------
    # Request entry point
    # ------------------------------------------------------------------
    def _h_request(self, src: str, payload: Dict[str, Any]) -> Generator:
        op = payload["op"]
        path = validate_path(payload["path"])
        m = self.mdsmap
        if m is None or not self.booted:
            raise TryAgain(f"{self.name} still booting")
        # Freeze blocks new work during migration, but capability
        # releases must drain through it — the export is waiting on
        # exactly those releases.
        if op != "cap_release":
            for prefix in self._frozen:
                if under(path, prefix):
                    raise TryAgain(f"{prefix} is migrating")
        owner = m.owner_of(path)
        if owner != self.rank:
            self.perf.incr("op.forward")
            if m.routing_mode != "proxy":
                raise WrongMDS(owner)
            target = m.rank_holder(owner)
            if target is None:
                raise TryAgain(f"rank {owner} has no daemon")
            # The proxy relays at messenger/dispatch cost, *off* the MDS
            # work queue: no tail-finding, no per-request session
            # ceremony.  This is what lets Proxy Mode "completely
            # decouple client request handling and operation
            # processing" (section 6.2.2) — forwarded traffic pipelines
            # past the proxy's own request processing instead of
            # queueing behind it.  The inode is not ours: no popularity.
            yield from self._serve(self.COST_FORWARD, None, queued=False)
            result = yield self.call(target, "mds_req", payload,
                                     timeout=self.FORWARD_TIMEOUT)
            return result
        entry = self._OPS.get(op)
        if entry is None:
            raise InvalidArgument(f"unknown mds op {op!r}")
        handler, cost, counted = entry
        started = self.sim.now
        if cost is not None:
            yield from self._serve(cost, path, counted=counted)
        result = handler(self, src, path, payload.get("args", {}))
        if isinstance(result, GeneratorType):
            result = yield from result
        self.perf.time(f"op.{op}", self.sim.now - started)
        return result

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def _op_mkdir(self, src: str, path: str,
                  args: Dict[str, Any]) -> Generator:
        inode = Inode(self.allocator.allocate(), DIR)
        self.ns.add(path, inode)
        yield from self._persist_entry(path, inode)
        yield from self._journal("mkdir", path, ino=inode.ino)
        self._emit_changelog("mkdir", src, path, ino=inode.ino)
        return inode.to_dict()

    def _op_create(self, src: str, path: str,
                   args: Dict[str, Any]) -> Generator:
        file_type = args.get("file_type", "regular")
        inode = Inode(self.allocator.allocate(), FILE, file_type=file_type)
        self.ns.add(path, inode)
        yield from self._persist_entry(path, inode)
        yield from self._journal("create", path, ino=inode.ino,
                                 file_type=file_type)
        self._emit_changelog("create", src, path, ino=inode.ino,
                             file_type=file_type)
        return inode.to_dict()

    def _op_setattr(self, src: str, path: str,
                    args: Dict[str, Any]) -> Generator:
        """Update inode attributes (currently: size, after data I/O)."""
        inode = self.ns.get(path)
        size = args.get("size")
        if size is not None:
            if size < 0:
                raise InvalidArgument(f"negative size {size}")
            inode.size = size
            inode.version += 1
        yield from self._persist_entry(path, inode)
        yield from self._journal("setattr", path, size=inode.size)
        self._emit_changelog("setattr", src, path, ino=inode.ino,
                             size=inode.size)
        return inode.to_dict()

    def _op_stat(self, src: str, path: str,
                 args: Dict[str, Any]) -> Dict[str, Any]:
        return self.ns.get(path).to_dict()

    def _op_readdir(self, src: str, path: str,
                    args: Dict[str, Any]) -> List[str]:
        return self.ns.listdir(path)

    def _op_unlink(self, src: str, path: str,
                   args: Dict[str, Any]) -> Generator:
        inode = self.ns.remove(path)
        self._drop_caps(inode.ino, NotFound(f"{path} was unlinked"))
        self.tracker.forget_inode(path)
        yield from self.rados_op(
            METADATA_POOL, dir_object_id(parent_of(path)),
            [{"op": "omap_del", "key": basename(path)}])
        yield from self._journal("unlink", path, ino=inode.ino)
        self._emit_changelog("unlink", src, path, ino=inode.ino)
        return None

    def _op_rename(self, src: str, path: str,
                   args: Dict[str, Any]) -> Generator:
        """Rename a file within this rank's authority.

        The namespace cache is path-keyed, so directory renames are
        unsupported (same restriction as ``NamespaceCache``); files may
        move across directories as long as both ends share the owning
        rank.  Any delegated capability is recalled first so the
        holder's dirty state lands before the dentry moves.
        """
        to = validate_path(args.get("to", ""))
        m = self.mdsmap
        if m is None or m.owner_of(to) != self.rank:
            raise InvalidArgument(
                f"cross-rank rename {path} -> {to} unsupported")
        for prefix in self._frozen:
            if under(to, prefix):
                raise TryAgain(f"{prefix} is migrating")
        inode = self.ns.get(path)
        if inode.kind == DIR:
            raise InvalidArgument(
                "directory rename unsupported (path-keyed namespace)")
        if self.ns.has(to):
            raise AlreadyExists(f"{to} exists")
        if self.locker.holder_of(inode.ino) is not None:
            yield from self._recall_cap(inode)
        self.ns.remove(path)
        self.ns.add(to, inode)
        self.tracker.forget_inode(path)
        yield from self.rados_op(
            METADATA_POOL, dir_object_id(parent_of(path)),
            [{"op": "omap_del", "key": basename(path)}])
        yield from self._persist_entry(to, inode)
        yield from self._journal("rename", path, to=to, ino=inode.ino)
        self._emit_changelog("rename", src, path, to=to, ino=inode.ino)
        return inode.to_dict()

    def _persist_entry(self, path: str, inode: Inode) -> Generator:
        """Write-through: record the dentry in the parent's dir object."""
        yield from self.rados_op(
            METADATA_POOL, dir_object_id(parent_of(path)),
            [{"op": "omap_set", "key": basename(path),
              "value": inode.to_dict()}])

    def _emit_changelog(self, kind: str, actor: str, path: str,
                        **details: Any) -> None:
        """Fire-and-forget changelog emission (no-op when disabled)."""
        if self.changelog is not None:
            self.changelog.emit(kind, actor, path, rank=self.rank,
                                **details)

    # ------------------------------------------------------------------
    # Metadata journal
    # ------------------------------------------------------------------
    @property
    def journal_object(self) -> str:
        return f"mdsjournal.{self.rank}"

    def _journal(self, event: str, path: str, **extra: Any) -> Generator:
        payload = {"event": event, "path": path, "rank": self.rank}
        payload.update(extra)
        try:
            yield from self.rados_exec(METADATA_POOL, self.journal_object,
                                       "log", "add", {"payload": payload})
        except MalacologyError:
            # The journal is an audit record, not the source of truth
            # (directory objects are); losing one entry must not fail
            # the client's operation.
            pass

    def _journal_trim_tick(self) -> Generator:
        """Keep the journal bounded: drop the oldest batch when full."""
        try:
            out = yield from self.rados_exec(
                METADATA_POOL, self.journal_object, "log", "list",
                {"max": self.JOURNAL_TRIM_BATCH})
        except MalacologyError:
            return
        if out["truncated"]:
            yield from self.rados_exec(
                METADATA_POOL, self.journal_object, "log", "trim",
                {"to_cursor": out["cursor"]})

    # ------------------------------------------------------------------
    # File Type execution (round-trip path)
    # ------------------------------------------------------------------
    def _op_ftype_exec(self, src: str, path: str,
                       args: Dict[str, Any]) -> Generator:
        inode = self.ns.get(path)
        holder = self.locker.holder_of(inode.ino)
        if holder is not None and holder.client != src:
            # The embedded state is delegated to a cap holder; recall it
            # before serving the server-side op.
            yield from self._recall_cap(inode)
        m = self.mdsmap
        internal = (m is not None and src in m.ranks.values())
        if internal:
            # Forwarded by a proxy MDS: session handling happened there.
            cost = self.COST_PROCESS
        else:
            cost = self.COST_RECEIVE + self.COST_PROCESS
            self.tracker.record_direct(self.sim.now)
            if self._another_rank_active():
                cost += self.COST_COHERENCE
        yield from self._serve(cost, path)
        return inode.execute(args["method"], args.get("args", {}))

    def _another_rank_active(self) -> bool:
        """Is the metadata cluster multi-active from our vantage point?

        Drives the scatter-gather coherence cost on *direct* client
        service (section 6.2.1): once another rank either terminates
        client sessions or owns delegated subtrees, every directly
        served request drags the cross-MDS cache-coherence machinery
        with it.  Forwarded (proxied) work never pays it — the proxy's
        session covers the client — which is the root of proxy mode's
        throughput advantage (Figure 12).
        """
        m = self.mdsmap
        if m is not None:
            for path, rank in m.subtrees.items():
                if rank != self.rank and path != "/":
                    return True
        for rank, row in self.peer_loads.items():
            if rank == self.rank:
                continue
            if row.get("direct_rate", 0.0) > self.DIRECT_RATE_FLOOR:
                return True
        return False

    def _recall_cap(self, inode: Inode) -> Generator:
        """Queue as ``__server__`` behind the holder, then hand the cap
        straight back.

        Callers see another holder with no yield since, so this always
        queues; concurrent recalls of one inode share the one grant.
        """
        grant = yield self._grant(inode, "__server__")
        self._release(inode.ino, "__server__", grant["seq"])

    # ------------------------------------------------------------------
    # Capabilities (Shared Resource interface)
    # ------------------------------------------------------------------
    def _op_open(self, src: str, path: str,
                 args: Dict[str, Any]) -> Generator:
        inode = self.ns.get(path)
        policy = self._policy_for(inode)
        if not policy.cacheable:
            return {"cacheable": False, "policy": policy.to_dict(),
                    "ino": inode.ino}
        cap = self._grant(inode, src)
        if isinstance(cap, Future):
            return (yield cap)
        return self._grant_payload(inode, cap)

    def _policy_for(self, inode: Inode) -> LeasePolicy:
        m = self.mdsmap
        raw = m.lease_policy if m is not None else {}
        policy = LeasePolicy.from_dict(
            inode.type_plugin.lease_policy_override(dict(raw)))
        return policy

    def _grant_payload(self, inode: Inode, cap) -> Dict[str, Any]:
        return {
            "cacheable": True,
            "ino": inode.ino,
            "seq": cap.seq,
            "policy": cap.policy.to_dict(),
            "embedded": copy.deepcopy(inode.embedded),
            "granted_at": cap.granted_at,
        }

    def _grant(self, inode: Inode,
               client: str) -> Union[Capability, Future]:
        """The one grant path: ``client``'s cap on ``inode`` now, or —
        queued behind another holder, who is then asked to release —
        the future that settles with its grant payload."""
        cap = self.locker.try_grant(inode.ino, client, self.sim.now,
                                    self._policy_for(inode))
        if isinstance(cap, Future):
            self._maybe_revoke(inode.ino)
            return cap
        self.perf.incr("cap.grant")
        san = self.sim.sanitizers
        if san is not None:
            san.caps.on_grant(self.name, inode.ino, client, cap.seq,
                              daemon=self)
        return cap

    def _release(self, ino: int, client: str, seq: int,
                 inode: Optional[Inode] = None,
                 dirty: Optional[Dict[str, Any]] = None) -> None:
        """The one release path: end ``client``'s grant, fold ``dirty``
        into ``inode``, then grant the longest waiter.

        A stale release (wrong client or seq) is the echo of one
        already processed and changes nothing.
        """
        if not self.locker.release(ino, client, seq):
            return
        self.perf.incr("cap.release")
        san = self.sim.sanitizers
        if san is not None:
            san.caps.on_release(self.name, ino, client, daemon=self)
        if inode is not None:
            inode.merge_flush(dirty)
        waiter = self.locker.next_waiter(ino)
        if waiter is None:
            return
        # Unlink and export drop an inode's waiters with it, so a
        # waiter's inode is always still in the namespace.
        inode = self.ns.get(self.ns.path_of_ino(ino))
        client, fut = waiter
        fut.resolve_if_pending(
            self._grant_payload(inode, self._grant(inode, client)))
        self._maybe_revoke(ino)

    def _drop_caps(self, ino: int, error: MalacologyError) -> None:
        """Forget ``ino``'s cap; its queued waiters fail with ``error``."""
        for fut in self.locker.drop_ino(ino):
            fut.fail_if_pending(error)
        san = self.sim.sanitizers
        if san is not None:
            san.caps.on_drop(ino, daemon=self)

    def _op_cap_release(self, src: str, path: str,
                        args: Dict[str, Any]) -> None:
        self._release(args["ino"], src, args["seq"], self.ns.get(path),
                      args.get("dirty", {}))

    def _maybe_revoke(self, ino: int) -> None:
        cap = self.locker.needs_revoke(ino)
        if cap is None:
            return
        self.locker.mark_revoking(ino)
        self.perf.incr("cap.revoke")
        san = self.sim.sanitizers
        if san is not None:
            san.caps.on_revoke_start(self.name, ino, daemon=self)
        self.cast(cap.client, "cap_revoke", {"ino": ino, "seq": cap.seq})
        self.sim.schedule(self.CAP_REVOKE_TIMEOUT,
                          self._revoke_deadline, ino, cap.client, cap.seq)

    def _revoke_deadline(self, ino: int, client: str, seq: int) -> None:
        """Holder unresponsive past the timeout: declare it dead.

        Section 5.2.2: "a timeout is used to determine when a client
        should be considered unavailable."  Its dirty state is lost;
        for sequencers that is safe because CORFU recovery (seal +
        max-pos) never reuses positions.  A grant released in time
        makes this a stale release.
        """
        if self.alive:
            self._release(ino, client, seq)

    # ------------------------------------------------------------------
    # Load gossip and balancing
    # ------------------------------------------------------------------
    def load_snapshot(self) -> Dict[str, Any]:
        """This MDS's balancer-visible load row (with noisy CPU)."""
        return self.tracker.snapshot(
            self.sim.now, cpu_noise_rng=self.sim.rng(f"cpu:{self.name}"))

    def _gossip_load(self) -> None:
        m = self.mdsmap
        if m is None:
            return
        snapshot = self.load_snapshot()
        snapshot["rank"] = self.rank
        snapshot["inodes"] = self.ns.inode_count()
        snapshot["time"] = self.sim.now
        self.peer_loads[self.rank] = snapshot
        for rank, daemon in m.ranks.items():
            if rank != self.rank and m.state.get(daemon) == "up":
                self.cast(daemon, "mds_load", snapshot)

    def _h_load(self, src: str, payload: Dict[str, Any]) -> None:
        self.peer_loads[payload["rank"]] = payload

    def _balance_tick(self) -> Optional[Generator]:
        if self.balancer is None or not self.booted:
            return None
        return self.balancer.tick()

    # ------------------------------------------------------------------
    # Migration (Load Balancing interface mechanisms)
    # ------------------------------------------------------------------
    def migrate_subtree(self, path: str, target_rank: int) -> Generator:
        """Export authority for ``path`` to ``target_rank``.

        The mechanism behind every Mantle policy decision: freeze,
        recall caps, ship state, flip authority through the monitors,
        drop local state.
        """
        m = self.mdsmap
        if m is None or m.owner_of(path) != self.rank:
            return
        if target_rank == self.rank:
            return
        target = m.rank_holder(target_rank)
        if target is None or m.state.get(target) != "up":
            return
        if any(under(path, p) or under(p, path) for p in self._frozen):
            return
        self._frozen.add(path)
        san = self.sim.sanitizers
        if san is not None:
            san.migration.on_export_begin(path, self.rank, target_rank,
                                          daemon=self)
        try:
            yield from self._recall_subtree_caps(path)
            entries = {p: self.ns.get(p).to_dict()
                       for p in self.ns.paths_under(path)}
            if not entries:
                return
            pops = {p: self.tracker.inode_popularity(self.sim.now, p)
                    for p in entries}
            yield self.call(target, "mds_import",
                            {"path": path, "entries": entries,
                             "popularity": pops},
                            timeout=self.FORWARD_TIMEOUT)
            yield from self.mon_submit([{
                "op": "map_update", "kind": "mds",
                "actions": [{"action": "set_subtree_auth", "path": path,
                             "rank": target_rank}]}])
            yield from self.mon_get_map("mds")
            self.ns.extract_subtree(path)
            for p in entries:
                self.tracker.forget_inode(p)
            yield from self._journal("export", path, to_rank=target_rank)
            self._emit_changelog("migrate", self.name, path,
                                 to_rank=target_rank,
                                 inodes=len(entries))
            self.perf.incr("migrate.export")
            self.perf.incr("migrate.inodes", len(entries))
            yield from self.mon_log(
                "INF", f"mds.{self.rank} exported {path} to "
                       f"rank {target_rank}")
        finally:
            self._frozen.discard(path)
            if san is not None:
                san.migration.on_export_end(path, daemon=self)

    def _recall_subtree_caps(self, path: str) -> Generator:
        for p in self.ns.paths_under(path):
            inode = self.ns.maybe_get(p)
            if inode is None:
                continue
            if self.locker.holder_of(inode.ino) is not None:
                yield from self._recall_cap(inode)
            # Fail queued waiters; clients retry against the new owner.
            self._drop_caps(inode.ino, TryAgain(f"{path} migrating"))

    def _h_import(self, src: str, payload: Dict[str, Any]) -> bool:
        san = self.sim.sanitizers
        if san is not None:
            san.migration.on_import(payload["path"], self.rank,
                                    daemon=self)
        self.perf.incr("migrate.import")
        self.ns.install_subtree(payload["entries"])
        now = self.sim.now
        for p, pop in payload.get("popularity", {}).items():
            # Seed the decayed counters so the balancer does not see a
            # freshly imported subtree as cold.
            self.tracker.record_request(now, p, 0.0)
            for _ in range(int(pop)):
                self.tracker.record_request(now, p, 0.0)
        return True

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()  # telemetry is volatile
        # The namespace cache and caps are volatile; directories live in
        # RADOS and are reloaded on restart.
        self.booted = False
        self.ns = NamespaceCache()
        waiters = self.locker.queued()
        self.locker = Locker()
        self.tracker = LoadTracker()
        self._frozen = set()
        san = self.sim.sanitizers
        if san is not None:
            # Every lease this MDS issued died with its Locker.
            san.on_daemon_reset(self.name)
        for fut in waiters:
            fut.fail_if_pending(CapRevoked("mds crashed"))
        self.peer_loads = {}
        self._cpu_free_at = 0.0

    def on_restart(self) -> None:
        if self.changelog is not None:
            # New incarnation: fresh producer identity so the shard
            # class never mistakes the reset pseq counter for replays.
            self.changelog.on_daemon_restart()
        self.spawn(self._boot(), name=f"{self.name}:reboot")

    #: The service model: op -> (handler, CPU cost, counts as load),
    #: charged by :meth:`_serve` before the handler runs.  ``ftype_exec``
    #: learns its cost only after a possible cap recall and serves
    #: itself; a cap release is CPU work but no client demand.
    _OPS = {
        "mkdir": (_op_mkdir, COST_MUTATE, True),
        "create": (_op_create, COST_MUTATE, True),
        "stat": (_op_stat, COST_LOOKUP, True),
        "setattr": (_op_setattr, COST_MUTATE, True),
        "rename": (_op_rename, COST_MUTATE, True),
        "readdir": (_op_readdir, COST_LOOKUP, True),
        "unlink": (_op_unlink, COST_MUTATE, True),
        "ftype_exec": (_op_ftype_exec, None, True),
        "open": (_op_open, COST_CAP, True),
        "cap_release": (_op_cap_release, COST_CAP, False),
    }
