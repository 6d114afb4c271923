"""The Mantle balancer engine that runs on every MDS.

Each balancing tick (``MDS.BALANCE_INTERVAL``, 10 s by default — the
paper's balancing tick):

1. Compare the policy version in the MDS map against the loaded one;
   if it changed, dereference the version by reading the policy object
   from RADOS, bounded by *half the tick interval* — on expiry the
   balancer reports ``Connection Timeout`` to the central cluster log
   and keeps the previous policy (section 5.1.2);
2. Assemble the ``mds[]`` table from load gossip;
3. Run the policy sandbox: ``when()`` gates, ``where()`` fills
   ``targets`` (how much load to ship to each rank);
4. Map target amounts onto concrete subtrees/inodes by popularity and
   drive ``MDS.migrate_subtree`` — the mechanism half of Mantle.

Policy faults never take the MDS down: they are logged centrally and
balancing simply skips a tick (section 5.1.3).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.errors import (
    ConnectionTimeout,
    MalacologyError,
    PolicyError,
)
from repro.mantle.policy import MantlePolicy
from repro.mds.server import MDS, METADATA_POOL
from repro.mgr.audit import MantleAuditTrail
from repro.sim.event import Future, Timeout


class MantleBalancer:
    """Balancer instance attached to one MDS."""

    #: Counters whose tick-over-tick deltas the audit trail records —
    #: the measurable footprint of executing a migration decision.
    AUDIT_COUNTERS = ("migrate.export", "migrate.inodes", "rpc.tx")

    def __init__(self, mds: MDS, default_policy: Optional[MantlePolicy]
                 = None):
        self.mds = mds
        self.policy: Optional[MantlePolicy] = default_policy
        self.state: Dict[str, Any] = {}
        #: Bench hook: fn(decision_dict) after each tick that migrated.
        self.decision_hook: Optional[Any] = None
        #: Decision audit trail; the mgr collects it via the
        #: ``mantle.audit`` admin command during its scrape.
        self.audit = MantleAuditTrail()
        mds.balancer = self
        if not mds.has_admin_command("mantle.audit"):
            # Resolve through the daemon so re-attaching a balancer
            # (benchmarks do) always serves the live trail.
            mds.register_admin_command(
                "mantle.audit",
                lambda args: mds.balancer.audit.records(
                    since_seq=int((args or {}).get("since_seq", 0))))

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------
    def tick(self) -> Generator:
        mds = self.mds
        m = mds.mdsmap
        if m is None:
            return
        yield from self._refresh_policy(m)
        now = mds.sim.now
        if self.policy is None:
            self.audit.record(now, mds.rank, None, "no-policy")
            return
        table = self._mds_table(m)
        if table is None:
            self.audit.record(now, mds.rank, self.policy.version,
                              "no-table")
            return
        try:
            go, targets, routing = self.policy.decide(
                table, mds.rank, self.state)
        except PolicyError as exc:
            self.audit.record(now, mds.rank, self.policy.version,
                              "policy-error", load_table=table,
                              error=str(exc))
            yield from mds.mon_log(
                "ERR", f"mantle policy {self.policy.version!r}: {exc}")
            return
        decision = {
            "when": bool(go),
            "targets": list(targets) if go and targets else [],
            "routing": routing,
        }
        if routing is not None and routing != m.routing_mode:
            yield from mds.mon_submit([{
                "op": "map_update", "kind": "mds",
                "actions": [{"action": "set_routing_mode",
                             "mode": routing}]}])
        if not go:
            self.audit.record(now, mds.rank, self.policy.version,
                              "decided", load_table=table,
                              decision=decision)
            return
        before = {name: mds.perf.get(name)
                  for name in self.AUDIT_COUNTERS}
        moves = yield from self._execute_targets(targets)
        deltas = {name: mds.perf.get(name) - start
                  for name, start in before.items()
                  if mds.perf.get(name) != start}
        self.audit.record(now, mds.rank, self.policy.version,
                          "decided", load_table=table,
                          decision=decision, moves=moves,
                          counter_deltas=deltas)

    # ------------------------------------------------------------------
    # Policy loading (versioned + durable)
    # ------------------------------------------------------------------
    def _refresh_policy(self, m) -> Generator:
        version = m.balancer_version
        if not version:
            return
        if self.policy is not None and self.policy.version == version:
            return
        deadline = self.mds.BALANCE_INTERVAL / 2.0
        try:
            blob = yield from self._read_with_deadline(
                f"mantle.policy.{version}", deadline)
        except ConnectionTimeout as exc:
            # "Mantle will use a 5 second timeout ... immediately return
            # an error if anything RADOS-related goes wrong."
            yield from self.mds.mon_log(
                "ERR", f"mantle: Connection Timeout reading policy "
                       f"{version!r}: {exc}")
            return
        except MalacologyError as exc:
            yield from self.mds.mon_log(
                "ERR", f"mantle: cannot read policy {version!r}: {exc}")
            return
        try:
            self.policy = MantlePolicy(version, blob.decode())
        except PolicyError as exc:
            yield from self.mds.mon_log(
                "ERR", f"mantle: policy {version!r} rejected: {exc}")
            return
        self.state = {}
        yield from self.mds.mon_log(
            "INF", f"mds.{self.mds.rank} loaded balancer {version!r}")

    def _read_with_deadline(self, oid: str,
                            deadline: float) -> Generator:
        """RADOS read bounded by a deadline (the 5 s rule).

        The MDS must never block indefinitely on the object store from
        inside its balancing logic; the read races a timer.
        """
        result = Future(name=f"policyread:{oid}")
        self.mds.spawn(
            self._read_into(oid, result),
            name=f"{self.mds.name}:policyread")
        self.mds.sim.timeout_future(
            result, deadline,
            ConnectionTimeout(f"read of {oid!r} exceeded {deadline}s"))
        blob = yield result
        return blob

    def _read_into(self, oid: str, result: Future) -> Generator:
        try:
            blob = yield from self.mds.rados_read(METADATA_POOL, oid)
        except MalacologyError as exc:
            result.fail_if_pending(exc)
            return
        result.resolve_if_pending(blob)

    # ------------------------------------------------------------------
    # Metrics table
    # ------------------------------------------------------------------
    def _mds_table(self, m) -> Optional[List[Dict[str, Any]]]:
        mds = self.mds
        ranks = sorted(m.ranks)
        if not ranks:
            return None
        # Refresh our own row synchronously so decisions see current load.
        own = mds.load_snapshot()
        own["rank"] = mds.rank
        own["inodes"] = mds.ns.inode_count()
        mds.peer_loads[mds.rank] = own
        table = []
        for rank in range(max(ranks) + 1):
            row = mds.peer_loads.get(rank)
            if row is None:
                if rank in ranks:
                    return None  # missing gossip; skip this tick
                row = {"load": 0.0, "cpu": 0.0, "req_rate": 0.0,
                       "inodes": 0}
            table.append(dict(row))
        return table

    # ------------------------------------------------------------------
    # Mechanism: targets -> concrete exports
    # ------------------------------------------------------------------
    def _execute_targets(self, targets: List[float]
                         ) -> Generator:
        """Map target loads onto subtrees and export them.

        Returns the moves actually made: ``{target_rank: [paths]}``.
        """
        mds = self.mds
        now = mds.sim.now
        exportable = [
            (path, pop) for path, pop in
            mds.tracker.hottest_inodes(now, limit=64)
            if path != "/" and mds.ns.has(path)
        ]
        migrated = {}
        for rank, amount in enumerate(targets):
            if rank == mds.rank or amount <= 0.0 or not exportable:
                continue
            shipped = 0.0
            picked = []
            for path, pop in list(exportable):
                if shipped >= amount:
                    break
                # Skip paths nested under something already picked.
                if any(path.startswith(p + "/") or path == p
                       for p in picked):
                    continue
                picked.append(path)
                shipped += max(pop, 1e-9)
            for path in picked:
                exportable = [(p, q) for p, q in exportable
                              if p != path]
                yield from mds.migrate_subtree(path, rank)
            if picked:
                migrated[rank] = picked
        if migrated and self.decision_hook is not None:
            self.decision_hook({"time": now, "from": mds.rank,
                                "moves": migrated})
        if migrated:
            yield from mds.mon_log(
                "INF", f"mantle: mds.{mds.rank} migrated "
                       f"{sum(len(v) for v in migrated.values())} "
                       f"subtree(s): {migrated}")
        return migrated


def attach_balancers(cluster: Any,
                     policy: Optional[MantlePolicy] = None
                     ) -> List[MantleBalancer]:
    """Attach a balancer (optionally pre-seeded) to every MDS."""
    return [MantleBalancer(mds, default_policy=policy)
            for mds in cluster.mdss]
