"""Invariant oracles: turn a chaos run into a pass/fail verdict.

Each oracle checks one durability/consistency guarantee after the
nemesis schedule has been finalized and the cluster has settled:

* :class:`DurabilityOracle` — every client-*acked* write must be
  readable afterwards with exactly the acked contents.  Un-acked
  writes carry no obligation (the client saw an error and retried);
  acked-then-lost is the one unforgivable outcome.
* :class:`ZlogOracle` — the specialization for ZLog appends: acked
  positions are write-once (two acks on one position is a fencing
  breach) and must read back with the acked payload.
* :class:`ChangelogOracle` — per-shard sequence numbers are gapless
  and every ``(producer, pseq)`` stamp appears at most once, the
  no-gap/no-dup guarantee from the changelog PR.
* :class:`ReplicaConvergenceOracle` — after finalize + scrub, all
  replicas of every PG agree on object digests (out-of-band store
  inspection; catches unrepaired tears and bit-rot).

The :class:`RunVerdict` composes oracle violations with the PR-3
protocol-sanitizer report into the single pass/fail the sweep runner
and minimizer act on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import MalacologyError
from repro.rados.placement import acting_set


@dataclass
class Violation:
    """One broken invariant: which oracle, what happened."""

    oracle: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "detail": self.detail}


@dataclass
class RunVerdict:
    """The composed outcome of one chaos run."""

    scenario: str
    seed: int
    ok: bool = True
    violations: List[Violation] = field(default_factory=list)
    sanitizer_report: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None
    stats: Dict[str, Any] = field(default_factory=dict)

    def fail(self, oracle: str, detail: str) -> None:
        self.ok = False
        self.violations.append(Violation(oracle, detail))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "sanitizer_report": self.sanitizer_report,
            "error": self.error,
            "stats": self.stats,
        }


class DurabilityOracle:
    """Records client-acked writes; checks end-state readability.

    Workloads call :meth:`acked` only *after* the write RPC returned
    success.  ``check`` is a client generator (the readback goes over
    the real read path) driven by the runner after finalize.
    """

    name = "durability"

    def __init__(self) -> None:
        #: (pool, oid) -> expected full-object bytes (last ack wins;
        #: workloads keep one writer per oid so "last" is well-defined).
        self.acked_writes: Dict[Tuple[str, str], bytes] = {}
        self.acks = 0

    def acked(self, pool: str, oid: str, data: bytes) -> None:
        self.acked_writes[(pool, oid)] = data
        self.acks += 1

    def check(self, client: Any, verdict: RunVerdict) -> Generator:
        for (pool, oid) in sorted(self.acked_writes):
            expect = self.acked_writes[(pool, oid)]
            try:
                got = yield from client.rados_read(pool, oid)
            except MalacologyError as exc:
                verdict.fail(self.name,
                             f"acked object {pool}/{oid} unreadable: "
                             f"{exc.code}: {exc}")
                continue
            if got != expect:
                verdict.fail(
                    self.name,
                    f"acked object {pool}/{oid} diverged: expected "
                    f"{expect!r:.60}, read {got!r:.60}")


class ZlogOracle:
    """Acked ZLog appends are write-once and durable."""

    name = "zlog-fencing"

    def __init__(self) -> None:
        self.acked_appends: Dict[int, Any] = {}
        self.double_acks: List[str] = []
        #: The ZLog handle to read back through; the workload that
        #: created the log installs it.
        self.log: Optional[Any] = None

    def acked(self, position: int, payload: Any) -> None:
        if position in self.acked_appends:
            # Two successful appends claimed one position: the epoch
            # fence failed *right now*; record it even before readback.
            self.double_acks.append(
                f"position {position} acked twice "
                f"({self.acked_appends[position]!r} then {payload!r})")
        self.acked_appends[position] = payload

    def check(self, log: Any, verdict: RunVerdict) -> Generator:
        for detail in self.double_acks:
            verdict.fail(self.name, detail)
        for pos in sorted(self.acked_appends):
            expect = self.acked_appends[pos]
            try:
                entry = yield from log.read(pos)
            except MalacologyError as exc:
                verdict.fail(self.name,
                             f"acked position {pos} unreadable: "
                             f"{exc.code}: {exc}")
                continue
            got = entry.get("data") if isinstance(entry, dict) else entry
            if got != expect:
                verdict.fail(self.name,
                             f"acked position {pos} diverged: expected "
                             f"{expect!r}, read {got!r}")


class ChangelogOracle:
    """Per-shard no-gap / no-dup over the changelog end state.

    Inspects the shard objects out-of-band (primary replica via the
    store mapping plane): deterministic, no simulated time, works even
    if parts of the cluster never recovered.
    """

    name = "changelog"

    def check(self, cluster: Any, verdict: RunVerdict) -> None:
        writer = cluster.changelog_writer
        if writer is None:
            return
        layout = writer.layout
        for shard in range(layout.width):
            oid = layout.object_of(shard)
            obj = _primary_object(cluster, layout.pool, oid)
            if obj is None:
                continue  # never written: an empty shard has no gaps
            records = [value for key, value in sorted(obj.omap.items())
                       if key.startswith("rec.")]
            seqs = [rec["seq"] for rec in records]
            # Trim may have reclaimed a prefix; what remains must be
            # contiguous and must end at the shard's last_seq stamp.
            if seqs and seqs != list(range(seqs[0],
                                           seqs[0] + len(seqs))):
                verdict.fail(self.name,
                             f"shard {oid}: sequence gap in {seqs}")
            last_seq = obj.xattrs.get("chlog.last_seq", -1)
            if seqs and seqs[-1] != last_seq:
                verdict.fail(
                    self.name,
                    f"shard {oid}: last record {seqs[-1]} != "
                    f"last_seq xattr {last_seq}")
            seen: Dict[Tuple[str, int], int] = {}
            for rec in records:
                stamp = (rec["producer"], rec["pseq"])
                if stamp in seen:
                    verdict.fail(
                        self.name,
                        f"shard {oid}: duplicate record for producer "
                        f"{stamp[0]} pseq {stamp[1]} "
                        f"(seqs {seen[stamp]} and {rec['seq']})")
                seen[stamp] = rec["seq"]
        self._check_consumers(cluster, verdict)

    def _check_consumers(self, cluster: Any, verdict: RunVerdict) -> None:
        """No-dup, as witnessed by the consumers.

        The shard scan above sees only what trim left behind; by the
        time the oracle runs, cursor-acked prefixes are usually gone.
        Consumers saw every record before it was trimmed, so their
        ``received`` tapes are where a dedup breach actually surfaces.
        The same ``(producer, pseq)`` stamp at two *different* shard
        seqs means the record entered the log twice (a writer retry
        that the object class failed to dedup).  The same stamp at the
        same seq is fine: that is at-least-once redelivery after a
        consumer crash, which the contract explicitly permits.
        """
        for consumer in getattr(cluster, "changelog_consumers", []):
            tape = getattr(consumer, "received", None)
            if not tape:
                continue
            stamped: Dict[Tuple[str, int], int] = {}
            for rec in tape:
                stamp = (rec.get("producer"), rec.get("pseq"))
                seq = rec.get("seq")
                prior = stamped.get(stamp)
                if prior is not None and prior != seq:
                    verdict.fail(
                        self.name,
                        f"consumer {consumer.name}: producer "
                        f"{stamp[0]} pseq {stamp[1]} logged twice "
                        f"(seqs {prior} and {seq})")
                stamped.setdefault(stamp, seq)


class ReplicaConvergenceOracle:
    """All replicas of every PG agree after finalize + scrub."""

    name = "replica-convergence"

    def check(self, cluster: Any, verdict: RunVerdict) -> None:
        by_name = {o.name: o for o in cluster.osds}
        primary = cluster.osds[0].osdmap
        if primary is None:
            verdict.fail(self.name, "no OSD map available post-run")
            return
        seen = set()
        for osd in cluster.osds:
            for key in sorted(osd.pgs):
                if key in seen:
                    continue
                seen.add(key)
                pool, pgid = key
                acting = acting_set(primary, pool, pgid)
                if len(acting) < 2:
                    continue
                digests = {}
                for name in acting:
                    replica = by_name.get(name)
                    if replica is None:
                        continue
                    store = replica.pgs.get(key, {})
                    digests[name] = {
                        oid: store[oid].digest()
                        for oid in sorted(store)}
                base_name = acting[0]
                base = digests.get(base_name, {})
                for name in acting[1:]:
                    if digests.get(name) != base:
                        diff = _digest_diff(base, digests.get(name, {}))
                        verdict.fail(
                            self.name,
                            f"{pool}/{pgid}: replica {name} diverges "
                            f"from primary {base_name} on {diff}")


def _primary_object(cluster: Any, pool: str, oid: str) -> Optional[Any]:
    """The primary replica's stored object, via out-of-band lookup."""
    from repro.rados.placement import pg_of
    by_name = {o.name: o for o in cluster.osds}
    for osd in cluster.osds:
        m = osd.osdmap
        if m is None or pool not in m.pools:
            continue
        pgid = pg_of(oid, m.pool(pool)["pg_num"])
        acting = acting_set(m, pool, pgid)
        if not acting:
            return None
        primary = by_name.get(acting[0])
        if primary is None:
            return None
        store = primary.pgs.get((pool, pgid))
        if store is None:
            return None
        return store.get(oid)
    return None


def _digest_diff(a: Dict[str, str], b: Dict[str, str]) -> str:
    """Human-readable object-level difference between two digest maps."""
    missing = sorted(set(a) - set(b))
    extra = sorted(set(b) - set(a))
    changed = sorted(oid for oid in set(a) & set(b) if a[oid] != b[oid])
    parts = []
    if missing:
        parts.append(f"missing={missing[:3]}")
    if extra:
        parts.append(f"extra={extra[:3]}")
    if changed:
        parts.append(f"changed={changed[:3]}")
    return ", ".join(parts) or "unknown difference"
