"""Monitor daemon: rank-based election + multi-Paxos + client API.

Behavioural notes tied to the paper:

* **Proposal batching** — the leader accumulates transactions and
  proposes a batch every ``proposal_interval`` (default 1.0 s, matching
  Ceph's default accumulation interval; section 6.1.2 notes a tuned
  3-monitor quorum reaches ~222 ms average commit latency, which the
  Figure 8 benchmark reproduces by lowering this knob).
* **Subscriptions** — daemons subscribe for map kinds and get pushed
  new epochs after each applied batch; OSDs additionally gossip epochs
  among themselves (section 4.4), which is what the interface
  propagation experiment measures.
* **Durability** — acceptor state, the chosen log, and the applied
  store survive a crash (a real monitor persists them); leadership and
  in-flight client requests do not.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import (
    InvalidArgument,
    MalacologyError,
    QuorumLost,
    TimeoutError_,
)
from repro.monitor.cluster_log import ClusterLogEntry, INFO
from repro.monitor.maps import ClusterMap
from repro.monitor.paxos import (
    Acceptor,
    ChosenLog,
    LeaderBook,
    NO_PROPOSAL,
    PrepareReply,
    Proposal,
    ProposalId,
)
from repro.monitor.store import MonitorStore
from repro.msg import Daemon
from repro.sim.event import Future, Timeout
from repro.sim.kernel import Simulator
from repro.sim.network import Network


class Monitor(Daemon):
    """One member of the monitor quorum."""

    #: Default timing knobs (simulated seconds).
    HEARTBEAT_INTERVAL = 0.25
    LEASE_TIMEOUT = 1.0
    ELECTION_RETRY = 0.6
    RPC_TIMEOUT = 0.5
    #: Per-commit local store sync cost: "hdd" in the paper's minimum
    #: realistic quorum, "ram" for the idealized runs.
    STORE_SYNC = {"ram": 0.0002, "hdd": 0.005}

    def __init__(self, sim: Simulator, network: Network, name: str,
                 mon_names: List[str], proposal_interval: float = 1.0,
                 backing: str = "ram"):
        super().__init__(sim, network, name)
        if name not in mon_names:
            raise InvalidArgument(f"{name} not in monitor list")
        self.mon_names = sorted(mon_names)
        self.rank = self.mon_names.index(name)
        self.proposal_interval = proposal_interval
        if backing not in self.STORE_SYNC:
            raise InvalidArgument(f"unknown backing {backing!r}")
        self.store_sync = self.STORE_SYNC[backing]

        # Durable state (survives crash).
        self.acceptor = Acceptor()
        self.chosen = ChosenLog()
        self.store = MonitorStore(self.mon_names)
        self.max_term_seen = 0

        # Volatile state.
        self.leader: Optional[str] = None
        self.is_leader = False
        self.current_pid: ProposalId = NO_PROPOSAL
        self.book: Optional[LeaderBook] = None
        self.last_heartbeat = 0.0
        self._last_sync = -1.0
        self._campaigning = False
        self._pending_txns: List[Tuple[Dict[str, Any], Future]] = []
        self._inflight_instance: Optional[int] = None
        self._batch_seq = 0
        # Waiters are keyed by *batch id*, not instance: if leadership
        # changes, a different batch may be chosen at the instance we
        # proposed at, and results must never be delivered to the wrong
        # submitters.
        self._applied_waiters: Dict[str, List[Future]] = {}
        #: subscriber daemon name -> set of map kinds.
        self.subscribers: Dict[str, Set[str]] = {}

        # Health-facing gauges (pure reads: the mgr scrapes these on a
        # fixed period and sampling must never change monitor state).
        # ``paxos.pending_txns`` counts consensus work still owed to
        # clients: queued transactions plus proposed-but-unapplied
        # batches — the quantity whose failure to drain while commits
        # stand still is the PAXOS_STALL signal.
        self.perf.gauge_fn(
            "paxos.pending_txns",
            lambda: len(self._pending_txns) + sum(
                len(w) for w in self._applied_waiters.values()))
        self.perf.gauge_fn("mon.is_leader",
                           lambda: 1 if self.is_leader else 0)
        self.perf.gauge_fn("log.entries",
                           lambda: len(self.store.cluster_log))

        self._register_handlers()
        self._start_loops()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        rh = self.register_handler
        # Intra-quorum protocol.
        rh("election_claim", self._h_election_claim)
        rh("mon_heartbeat", self._h_heartbeat)
        rh("paxos_prepare", self._h_prepare)
        rh("paxos_accept", self._h_accept)
        rh("paxos_commit", self._h_commit)
        rh("paxos_sync", self._h_sync)
        # Client API.
        rh("mon_submit", self._h_submit)
        rh("mon_get_map", self._h_get_map)
        rh("mon_kv_get", self._h_kv_get)
        rh("mon_kv_list", self._h_kv_list)
        # Debug/tooling surface: tests and operator scripts query
        # these directly; no shipped daemon calls them.
        rh("mon_log_tail", self._h_log_tail)  # mal: disable=MAL011 -- test/tooling query surface, no in-tree caller
        rh("mon_subscribe", self._h_subscribe)
        rh("mon_leader", lambda src, p: self.leader)  # mal: disable=MAL011 -- test/tooling query surface, no in-tree caller

    def _start_loops(self) -> None:
        self.every(self.HEARTBEAT_INTERVAL, self._heartbeat_tick,
                   name=f"{self.name}:hb")
        self.every(self.proposal_interval, self._proposal_tick,
                   name=f"{self.name}:propose")

    # ------------------------------------------------------------------
    # Election: lowest reachable rank wins
    # ------------------------------------------------------------------
    def _heartbeat_tick(self) -> Optional[Generator]:
        if self.is_leader:
            for peer in self.mon_names:
                if peer != self.name:
                    self.cast(peer, "mon_heartbeat", {
                        "term": self.max_term_seen,
                        "applied_through": self.chosen.applied_through,
                    })
            return None
        # Rank-staggered campaign trigger: lower ranks time out first,
        # so the lowest live rank claims leadership before higher ranks
        # even notice the lease expired.  This avoids same-term election
        # collisions without randomized timeouts.
        patience = self.LEASE_TIMEOUT + self.rank * 0.3
        if (self.sim.now - self.last_heartbeat > patience
                and not self._campaigning):
            return self._campaign()
        return None

    def _campaign(self) -> Generator:
        """Try to become leader; yields until resolved or abandoned."""
        self._campaigning = True
        try:
            term = self.max_term_seen + 1
            self.max_term_seen = term
            acks = 1  # self
            futs = [
                (peer, self.call(peer, "election_claim",
                                 {"term": term, "rank": self.rank},
                                 timeout=self.RPC_TIMEOUT))
                for peer in self.mon_names if peer != self.name
            ]
            for peer, fut in futs:
                try:
                    reply = yield fut
                except MalacologyError:
                    continue
                if reply["ok"]:
                    acks += 1
                else:
                    self.max_term_seen = max(self.max_term_seen,
                                             reply["term"])
                    if reply["rank"] < self.rank:
                        # Defer to a lower-ranked live monitor and reset
                        # our patience so we don't immediately re-claim.
                        self.last_heartbeat = self.sim.now
                        return
            if acks >= self.store.monmap.quorum_size:
                yield from self._take_office(term)
        finally:
            self._campaigning = False

    def _h_election_claim(self, src: str, payload: Dict[str, Any]) -> Dict:
        term, rank = payload["term"], payload["rank"]
        if term > self.max_term_seen and rank <= self.rank:
            # Yield to the claimant.
            self.max_term_seen = term
            self.is_leader = False
            self.leader = src
            self.last_heartbeat = self.sim.now
            return {"ok": True, "term": self.max_term_seen,
                    "rank": self.rank}
        return {"ok": False, "term": self.max_term_seen, "rank": self.rank}

    def _h_heartbeat(self, src: str, payload: Dict[str, Any]) -> None:
        if payload["term"] >= self.max_term_seen:
            self.max_term_seen = payload["term"]
            self.leader = src
            self.is_leader = self.is_leader and src == self.name
            self.last_heartbeat = self.sim.now
            if (payload["applied_through"] > self.chosen.applied_through
                    and self.sim.now - self._last_sync >= 0.5):
                self._last_sync = self.sim.now
                self.spawn(self._sync_from(src), name=f"{self.name}:sync")

    # ------------------------------------------------------------------
    # Paxos: leader takeover (Phase 1 over an open range)
    # ------------------------------------------------------------------
    def _take_office(self, term: int) -> Generator:
        pid: ProposalId = (term, self.rank)
        start = self.chosen.applied_through + 1
        replies = [self.acceptor.handle_prepare(pid, start)]
        if not replies[0].ok:
            return
        futs = [self.call(p, "paxos_prepare",
                          {"pid": pid, "start": start},
                          timeout=self.RPC_TIMEOUT)
                for p in self.mon_names if p != self.name]
        for fut in futs:
            try:
                rep = yield fut
            except MalacologyError:
                continue
            if not rep.ok:
                self.max_term_seen = max(self.max_term_seen,
                                         rep.promised[0])
                return
            replies.append(rep)
        if len(replies) < self.store.monmap.quorum_size:
            return
        # Adopt the highest-pid accepted value for every open instance.
        adopted: Dict[int, Tuple[ProposalId, Any]] = {}
        for rep in replies:
            for inst, (apid, aval) in rep.accepted.items():
                if inst not in adopted or apid > adopted[inst][0]:
                    adopted[inst] = (apid, aval)
        self.current_pid = pid
        self.is_leader = True
        self.leader = self.name
        self.book = LeaderBook(self.store.monmap.quorum_size)
        self.perf.incr("election.won")
        self.log_local(INFO, f"mon.{self.name} won election term {term}")
        # Re-drive adopted values in instance order, filling gaps with
        # no-ops so the log stays contiguous.
        if adopted:
            top = max(adopted)
            for inst in range(start, top + 1):
                if self.chosen.known(inst):
                    continue
                _, value = adopted.get(
                    inst, (pid, {"id": f"noop:{term}:{inst}", "txns": []}))
                yield from self._drive_instance(inst, value)

    # ------------------------------------------------------------------
    # Paxos: steady-state proposing
    # ------------------------------------------------------------------
    def _proposal_tick(self) -> Optional[Generator]:
        if (not self.is_leader or not self._pending_txns
                or self._inflight_instance is not None):
            return None
        return self._propose_pending()

    def _propose_pending(self) -> Generator:
        batch_pairs = self._pending_txns
        self._pending_txns = []
        self._batch_seq += 1
        batch = {
            "id": f"{self.name}:{self._batch_seq}",
            "txns": [txn for txn, _ in batch_pairs],
        }
        instance = self.chosen.next_instance
        for _, fut in batch_pairs:
            self._applied_waiters.setdefault(batch["id"], []).append(fut)
        yield from self._drive_instance(instance, batch)

    def _drive_instance(self, instance: int, value: Any) -> Generator:
        """Phase 2 for one instance; retries are the next election's job."""
        if self.book is None:
            return
        self._inflight_instance = instance
        proposed_at = self.sim.now
        self.perf.incr("paxos.propose")
        try:
            self.book.start(instance, value)
            proposal = {"instance": instance, "pid": self.current_pid,
                        "value": value}
            # Local accept first (we are also an acceptor).
            if self.acceptor.handle_accept(
                    Proposal(instance, self.current_pid, value)):
                self.book.record_ack(instance, self.name)
            futs = [(p, self.call(p, "paxos_accept", proposal,
                                  timeout=self.RPC_TIMEOUT))
                    for p in self.mon_names if p != self.name]
            chosen = self.book.quorum <= 1
            rejected = False
            for peer, fut in futs:
                if chosen:
                    break  # quorum reached; stragglers can be ignored
                try:
                    ok = yield fut
                except MalacologyError:
                    continue
                if ok and self.book.record_ack(instance, peer):
                    chosen = True
                elif not ok:
                    rejected = True
            if rejected and not chosen:
                # A higher proposal exists: abdicate.
                self.is_leader = False
                self.book = None
                return
            if not chosen:
                return  # could not reach quorum; stay leader, retry later
            self.book.finish(instance)
            # Model the local store sync before acking the commit.
            if self.store_sync:
                yield Timeout(self.store_sync)
            self.perf.incr("paxos.commit")
            self.perf.time("paxos.commit", self.sim.now - proposed_at)
            san = self.sim.sanitizers
            if san is not None:
                san.paxos.on_learn(self.name, instance, value,
                                   daemon=self)
            self.chosen.learn(instance, value)
            for peer in self.mon_names:
                if peer != self.name:
                    self.cast(peer, "paxos_commit",
                              {"instance": instance, "value": value})
            self._apply_ready()
        finally:
            self._inflight_instance = None

    def _h_prepare(self, src: str, payload: Dict[str, Any]) -> PrepareReply:
        pid = payload["pid"]
        self.max_term_seen = max(self.max_term_seen, pid[0])
        return self.acceptor.handle_prepare(pid, payload["start"])

    def _h_accept(self, src: str, payload: Dict[str, Any]) -> bool:
        return self.acceptor.handle_accept(
            Proposal(payload["instance"], payload["pid"], payload["value"]))

    def _h_commit(self, src: str, payload: Dict[str, Any]) -> None:
        san = self.sim.sanitizers
        if san is not None:
            san.paxos.on_learn(self.name, payload["instance"],
                               payload["value"], daemon=self)
        self.chosen.learn(payload["instance"], payload["value"])
        self._apply_ready()

    # ------------------------------------------------------------------
    # State transfer for lagging/restarted monitors
    # ------------------------------------------------------------------
    def _h_sync(self, src: str, payload: Any) -> Dict[str, Any]:
        return {
            "snapshot": self.store.snapshot(),
            "applied_through": self.chosen.applied_through,
            "max_term_seen": self.max_term_seen,
        }

    def _sync_from(self, peer: str) -> Generator:
        try:
            reply = yield self.call(peer, "paxos_sync", None,
                                    timeout=self.RPC_TIMEOUT)
        except MalacologyError:
            return
        if reply["applied_through"] > self.chosen.applied_through:
            self.store.restore(reply["snapshot"])
            self.chosen.applied_through = reply["applied_through"]
            self.chosen.take_ready()
            san = self.sim.sanitizers
            if san is not None:
                # The restore jumps every map epoch at once; the
                # monotone-epochs checker must see the new watermarks,
                # or a snapshot that regressed a map would go unseen.
                for kind in ("mds", "mon", "osd"):
                    san.paxos.on_epoch(self.name, kind,
                                       self.store.get_map(kind).epoch,
                                       daemon=self)
            self.max_term_seen = max(self.max_term_seen,
                                     reply["max_term_seen"])
            self._notify_subscribers({"osd", "mds", "mon"})

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply_ready(self) -> None:
        changed_kinds: Set[str] = set()
        for instance, batch in self.chosen.take_ready():
            self.perf.incr("paxos.apply")
            epochs_before = self._epochs()
            results = self.store.apply_batch(batch["txns"])
            for kind, before in epochs_before.items():
                if self.store.get_map(kind).epoch != before:
                    changed_kinds.add(kind)
            waiters = self._applied_waiters.pop(batch["id"], [])
            for fut, result in zip(waiters, results):
                if isinstance(result, MalacologyError):
                    fut.fail_if_pending(result)
                else:
                    fut.resolve_if_pending(result)
            self.acceptor.forget_below(instance + 1)
        if changed_kinds:
            san = self.sim.sanitizers
            if san is not None:
                for kind in sorted(changed_kinds):
                    san.paxos.on_epoch(self.name, kind,
                                       self.store.get_map(kind).epoch,
                                       daemon=self)
            self._notify_subscribers(changed_kinds)

    def _epochs(self) -> Dict[str, int]:
        return {k: self.store.get_map(k).epoch for k in ("mon", "osd",
                                                         "mds")}

    #: How many random OSDs the leader seeds with a new OSD map; the
    #: rest of the cluster learns through peer-to-peer gossip (paper
    #: section 4.4) — monitors stay out of the fan-out.
    OSD_PUSH_SAMPLE = 3

    def _notify_subscribers(self, kinds: Set[str]) -> None:
        for sub, wanted in self.subscribers.items():
            # sorted(): set-intersection order depends on the string
            # hash seed; casting in it would break seeded replay.
            for kind in sorted(kinds & wanted):
                m = self.store.get_map(kind)
                self.cast(sub, "map_notify",
                          {"kind": kind, "epoch": m.epoch, "map": m})
        if "osd" in kinds and self.is_leader:
            m = self.store.osdmap
            up = [o for o in m.up_osds() if o not in self.subscribers]
            if up:
                rng = self.sim.rng(f"mon-push:{self.name}")
                sample = rng.sample(up, min(self.OSD_PUSH_SAMPLE, len(up)))
                for osd in sample:
                    self.cast(osd, "map_notify",
                              {"kind": "osd", "epoch": m.epoch, "map": m})

    # ------------------------------------------------------------------
    # Client API handlers
    # ------------------------------------------------------------------
    def _h_submit(self, src: str, payload: Dict[str, Any]) -> Any:
        txns = payload["txns"]
        self.perf.incr("mon.submit", len(txns))
        if not self.is_leader:
            if self.leader is None or self.leader == self.name:
                raise QuorumLost(f"mon.{self.name} knows no leader")
            self.perf.incr("mon.submit.proxied")
            # Proxy to the leader and relay its answer.
            return self.call(self.leader, "mon_submit", payload,
                             timeout=self.RPC_TIMEOUT * 4)
        results_fut = Future(name=f"submit:{self.name}")
        single_futs = []
        for txn in txns:
            fut = Future()
            self._pending_txns.append((txn, fut))
            single_futs.append(fut)

        def _collect() -> Generator:
            out = []
            for f in single_futs:
                out.append((yield f))
            return out

        proc = self.spawn(_collect(), name=f"{self.name}:submit")
        proc.completion.add_callback(
            lambda f: results_fut.fail_if_pending(f.error)
            if f.failed else results_fut.resolve_if_pending(f.result()))
        return results_fut

    def _h_get_map(self, src: str, payload: Dict[str, Any]) -> ClusterMap:
        return self.store.get_map(payload["kind"])

    def _h_kv_get(self, src: str, payload: Dict[str, Any]) -> Dict:
        return self.store.kv_get(payload["key"])

    def _h_kv_list(self, src: str, payload: Dict[str, Any]) -> Dict:
        return self.store.kv_list(payload.get("prefix", ""))

    def _h_log_tail(self, src: str,
                    payload: Dict[str, Any]) -> List[ClusterLogEntry]:
        return self.store.log_tail(payload.get("count", 100))

    def _h_subscribe(self, src: str, payload: Dict[str, Any]) -> bool:
        kinds = set(payload["kinds"])
        unknown = kinds - {"mon", "osd", "mds"}
        if unknown:
            raise InvalidArgument(f"unknown map kinds {sorted(unknown)}")
        self.subscribers.setdefault(src, set()).update(kinds)
        return True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def log_local(self, severity: str, message: str) -> None:
        """Append to the cluster log through consensus (leader only)."""
        entry = ClusterLogEntry(time=self.sim.now, severity=severity,
                                who=f"mon.{self.name}", message=message)
        if self.is_leader:
            self._pending_txns.append(
                ({"op": "log", "entry": entry}, Future()))

    # ------------------------------------------------------------------
    # Crash / restart semantics
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()  # telemetry is volatile
        # Durable: acceptor, chosen log, store, max_term_seen.
        self.is_leader = False
        self.leader = None
        self.book = None
        self.current_pid = NO_PROPOSAL
        self._campaigning = False
        for _, fut in self._pending_txns:
            fut.fail_if_pending(QuorumLost(f"mon.{self.name} crashed"))
        self._pending_txns = []
        self._inflight_instance = None
        for waiters in self._applied_waiters.values():
            for fut in waiters:
                fut.fail_if_pending(QuorumLost(f"mon.{self.name} crashed"))
        self._applied_waiters = {}
        self.subscribers = {}

    def on_restart(self) -> None:
        self.last_heartbeat = self.sim.now  # grace period before campaign
        self._start_loops()


class MonitorClient:
    """Mixin for daemons/clients that talk to the monitor quorum.

    Handles leader discovery, retries on quorum churn, and caching of
    maps.  Mix into any :class:`Daemon` subclass and call
    :meth:`init_mon_client` from ``__init__``.
    """

    MON_RETRIES = 5
    MON_TIMEOUT = 4.0

    def init_mon_client(self: Any, mon_names: List[str]) -> None:
        self.mon_names = list(mon_names)
        self._mon_cursor = 0
        self.cached_maps: Dict[str, Any] = {}
        if "map_notify" not in self._handlers:
            self.register_handler("map_notify", self._h_map_notify)

    def _h_map_notify(self: Any, src: str, payload: Dict[str, Any]) -> None:
        kind = payload["kind"]
        cached = self.cached_maps.get(kind)
        if cached is None or payload["epoch"] > cached.epoch:
            self.cached_maps[kind] = payload["map"]
            self.on_map_update(kind, payload["map"])

    def on_map_update(self: Any, kind: str, new_map: Any) -> None:
        """Hook: subclasses react to fresh maps."""

    def _pick_mon(self: Any) -> str:
        mon = self.mon_names[self._mon_cursor % len(self.mon_names)]
        return mon

    def _advance_mon(self: Any) -> None:
        self._mon_cursor += 1

    def mon_request(self: Any, method: str, payload: Any) -> Generator:
        """Issue a monitor RPC with leader-failover retry."""
        last_error: Optional[MalacologyError] = None
        for _ in range(self.MON_RETRIES * len(self.mon_names)):
            mon = self._pick_mon()
            try:
                reply = yield self.call(mon, method, payload,
                                        timeout=self.MON_TIMEOUT)
                return reply
            except (TimeoutError_, QuorumLost) as exc:
                last_error = exc
                self._advance_mon()
                yield Timeout(0.1)
        raise last_error or QuorumLost("no monitor reachable")

    def mon_submit(self: Any, txns: List[Dict[str, Any]]) -> Generator:
        results = yield from self.mon_request("mon_submit", {"txns": txns})
        return results

    def mon_kv_put(self: Any, key: str, value: Any) -> Generator:
        results = yield from self.mon_submit(
            [{"op": "kv_put", "key": key, "value": value}])
        return results[0]

    def mon_kv_get(self: Any, key: str) -> Generator:
        entry = yield from self.mon_request("mon_kv_get", {"key": key})
        return entry

    def mon_kv_list(self: Any, prefix: str = "") -> Generator:
        entries = yield from self.mon_request("mon_kv_list",
                                              {"prefix": prefix})
        return entries

    def mon_get_map(self: Any, kind: str) -> Generator:
        m = yield from self.mon_request("mon_get_map", {"kind": kind})
        cached = self.cached_maps.get(kind)
        if cached is None or m.epoch > cached.epoch:
            self.cached_maps[kind] = m
        return self.cached_maps[kind]

    def mon_log(self: Any, severity: str, message: str) -> Generator:
        entry = ClusterLogEntry(time=self.sim.now, severity=severity,
                                who=self.name, message=message)
        yield from self.mon_submit([{"op": "log", "entry": entry}])

    def mon_subscribe(self: Any, kinds: List[str]) -> Generator:
        # Subscribe on every monitor so notifications survive any single
        # monitor failure; duplicates are deduped by epoch.
        for mon in self.mon_names:
            try:
                yield self.call(mon, "mon_subscribe", {"kinds": kinds},
                                timeout=self.MON_TIMEOUT)
            except MalacologyError:
                continue
        return None
