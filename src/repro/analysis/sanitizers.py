"""Runtime protocol sanitizers (TSan-style, opt-in).

Passive observers of the protocol invariants the paper takes for
granted: Paxos agreement (§4.1), exclusive capability leases (§4.3.1),
ZLog epoch fencing (§4.4), single-owner subtree migration, and the
simulator's own wire rule that a posted payload belongs to the message.
The daemons call tiny hook methods at the same places their telemetry
counters already tick; each hook only reads state and appends to
plain lists/dicts (the wire plane also stamps a digest on the
envelope) — no RNG draws, no scheduling, no messages — so a sanitized
run's event schedule is byte-identical to an unsanitized one.

Enable per cluster with ``MalacologyCluster.build(sanitize=True)`` or
globally with the ``MALACOLOGY_SANITIZE=1`` environment variable
(checked by :class:`repro.sim.kernel.Simulator`).

A violated invariant raises :class:`ProtocolViolation` — deliberately
an ``AssertionError`` subclass, *not* a ``MalacologyError``: the RPC
layer converts ``MalacologyError`` into polite error replies, but a
protocol violation is a bug in the storage system itself and must
crash the run loudly, carrying the causal RPC trace of the offending
message.
"""

from __future__ import annotations

import copy
import pickle
from typing import Any, Dict, List, Optional, Tuple

#: Registries installed this process, newest last.  The pytest
#: sanitizer fixture snapshots this to assert zero violations for
#: every cluster a test built.
ACTIVE: List["SanitizerRegistry"] = []


class ProtocolViolation(AssertionError):
    """A protocol invariant was broken; carries the causal trace."""

    def __init__(self, sanitizer: str, invariant: str, message: str,
                 time: float, trace_id: Optional[int] = None,
                 trace: Optional[str] = None):
        self.sanitizer = sanitizer
        self.invariant = invariant
        self.message = message
        self.time = time
        self.trace_id = trace_id
        self.trace = trace
        text = (f"[{sanitizer}] {invariant} violated at t={time:.6f}: "
                f"{message}")
        if trace:
            text += f"\ncausal trace (id={trace_id}):\n{trace}"
        super().__init__(text)

    def to_dict(self) -> Dict[str, Any]:
        return {"sanitizer": self.sanitizer, "invariant": self.invariant,
                "message": self.message, "time": self.time,
                "trace_id": self.trace_id, "trace": self.trace}


class SanitizerRegistry:
    """All five sanitizers plus shared violation reporting."""

    def __init__(self, sim: Any, raise_on_violation: bool = True):
        self.sim = sim
        self.raise_on_violation = raise_on_violation
        self.violations: List[ProtocolViolation] = []
        self.paxos = PaxosSanitizer(self)
        self.caps = CapabilitySanitizer(self)
        self.zlog = ZLogEpochSanitizer(self)
        self.migration = MigrationSanitizer(self)
        self.wire = WireSanitizer(self)

    # ------------------------------------------------------------------
    def report(self, sanitizer: str, invariant: str, message: str,
               daemon: Any = None) -> None:
        trace_id: Optional[int] = None
        rendered: Optional[str] = None
        ctx = getattr(daemon, "trace_context", None)
        if ctx is not None:
            trace_id = ctx.trace_id
            collector = self.sim.trace_collector
            if collector is not None:
                rendered = collector.render(trace_id)
        violation = ProtocolViolation(
            sanitizer=sanitizer, invariant=invariant, message=message,
            time=self.sim.now, trace_id=trace_id, trace=rendered)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    def on_daemon_reset(self, daemon_name: str) -> None:
        """A daemon crashed: its volatile protocol state is gone."""
        self.paxos.on_daemon_reset(daemon_name)
        self.caps.on_daemon_reset(daemon_name)

    def finish(self) -> List[ProtocolViolation]:
        """End-of-run liveness checks; returns all violations."""
        self.caps.check_deadlines(final=True)
        return self.violations

    def to_dict(self) -> List[Dict[str, Any]]:
        return [v.to_dict() for v in self.violations]


class PaxosSanitizer:
    """§4.1: one value chosen per instance; map epochs never regress."""

    def __init__(self, registry: SanitizerRegistry):
        self.registry = registry
        #: instance -> (value, first monitor that learned it)
        self._chosen: Dict[int, Tuple[Any, str]] = {}
        #: (monitor, map kind) -> highest epoch applied
        self._epochs: Dict[Tuple[str, str], int] = {}

    def on_learn(self, mon: str, instance: int, value: Any,
                 daemon: Any = None) -> None:
        prior = self._chosen.get(instance)
        if prior is None:
            # Snapshot: every monitor shares the committed batch object
            # (the wire moves it), so a live reference would follow an
            # in-place edit by any monitor this checker is judging.
            self._chosen[instance] = (copy.deepcopy(value), mon)
        elif prior[0] != value:
            self.registry.report(
                "paxos", "one-value-per-instance",
                f"instance {instance}: {mon} is learning a value that "
                f"differs from the one {prior[1]} already chose "
                f"(chosen={prior[0]!r}, learning={value!r})",
                daemon=daemon)

    def on_epoch(self, mon: str, kind: str, epoch: int,
                 daemon: Any = None) -> None:
        key = (mon, kind)
        last = self._epochs.get(key)
        if last is not None and epoch < last:
            self.registry.report(
                "paxos", "monotone-epochs",
                f"{mon} applied {kind} map epoch {epoch} after "
                f"already serving epoch {last}", daemon=daemon)
        if last is None or epoch > last:
            self._epochs[key] = epoch

    def on_daemon_reset(self, daemon_name: str) -> None:
        # A restarted monitor resyncs from its peers; its per-daemon
        # epoch watermark starts over (global agreement state stays).
        for key in [k for k in self._epochs if k[0] == daemon_name]:
            del self._epochs[key]


class CapabilitySanitizer:
    """§4.3.1: exclusive caps never overlap; revokes complete."""

    #: A revoke outstanding this long is stuck: the MDS force-releases
    #: at CAP_REVOKE_TIMEOUT (2 s), so 10 s means that path broke.
    REVOKE_DEADLINE = 10.0

    def __init__(self, registry: SanitizerRegistry):
        self.registry = registry
        #: ino -> (mds, client, seq) of the recorded exclusive holder
        self._holders: Dict[int, Tuple[str, str, int]] = {}
        #: ino -> (revoke start time, mds)
        self._revokes: Dict[int, Tuple[float, str]] = {}

    def on_grant(self, mds: str, ino: int, client: str, seq: int,
                 daemon: Any = None) -> None:
        self.check_deadlines(daemon=daemon)
        held = self._holders.get(ino)
        if held is not None and held[1] != client:
            self.registry.report(
                "caps", "exclusive-holder",
                f"{mds} granted an exclusive cap on ino {ino} to "
                f"{client} while {held[1]} still holds seq {held[2]} "
                f"(granted by {held[0]})", daemon=daemon)
            return
        self._holders[ino] = (mds, client, seq)

    def on_release(self, mds: str, ino: int, client: str,
                   daemon: Any = None) -> None:
        held = self._holders.get(ino)
        if held is not None and held[1] == client:
            del self._holders[ino]
        self._revokes.pop(ino, None)

    def on_revoke_start(self, mds: str, ino: int,
                        daemon: Any = None) -> None:
        self._revokes.setdefault(ino, (self.registry.sim.now, mds))

    def on_drop(self, ino: int, daemon: Any = None) -> None:
        self._holders.pop(ino, None)
        self._revokes.pop(ino, None)

    def on_daemon_reset(self, daemon_name: str) -> None:
        # A crashed MDS loses its Locker: every lease it issued died
        # with it (clients re-acquire after failover).
        for ino in [i for i, h in self._holders.items()
                    if h[0] == daemon_name]:
            del self._holders[ino]
        for ino in [i for i, r in self._revokes.items()
                    if r[1] == daemon_name]:
            del self._revokes[ino]

    def check_deadlines(self, daemon: Any = None,
                        final: bool = False) -> None:
        now = self.registry.sim.now
        for ino, (start, mds) in list(self._revokes.items()):
            if now - start > self.REVOKE_DEADLINE:
                del self._revokes[ino]
                self.registry.report(
                    "caps", "revoke-completes",
                    f"revoke of ino {ino} on {mds} started at "
                    f"t={start:.6f} never completed "
                    f"({now - start:.1f}s > {self.REVOKE_DEADLINE}s)",
                    daemon=daemon)


class ZLogEpochSanitizer:
    """§4.4: no append/fill/trim accepted below a newer-epoch seal."""

    def __init__(self, registry: SanitizerRegistry):
        self.registry = registry
        #: (pool, oid) -> highest sealed epoch
        self._sealed: Dict[Tuple[str, str], int] = {}

    def observe_ops(self, pool: str, oid: str, ops: List[Dict[str, Any]],
                    daemon: Any = None) -> None:
        """Called by the primary OSD after a transaction *succeeded*.

        Only accepted ops are observed, so a correctly rejected stale
        write (StaleEpoch raised by cls_zlog) never reaches us — a
        violation means the epoch guard itself failed.
        """
        for op in ops:
            if op.get("op") != "exec" or op.get("cls") != "zlog":
                continue
            method = op.get("method")
            epoch = (op.get("args") or {}).get("epoch")
            if epoch is None:
                continue
            key = (pool, oid)
            sealed = self._sealed.get(key)
            if method == "seal":
                if sealed is None or epoch > sealed:
                    self._sealed[key] = epoch
            elif method in ("write", "fill", "trim"):
                if sealed is not None and epoch < sealed:
                    self.registry.report(
                        "zlog", "epoch-fencing",
                        f"{daemon.name if daemon else 'osd'} accepted "
                        f"zlog.{method} on {pool}/{oid} with stale "
                        f"epoch {epoch} after seal at epoch {sealed}",
                        daemon=daemon)


class MigrationSanitizer:
    """One MDS owns a subtree at a time, even mid-migration."""

    def __init__(self, registry: SanitizerRegistry):
        self.registry = registry
        #: frozen subtree path -> (source rank, target rank)
        self._active: Dict[str, Tuple[int, int]] = {}

    @staticmethod
    def _overlaps(a: str, b: str) -> bool:
        return a == b or a.startswith(b.rstrip("/") + "/") \
            or b.startswith(a.rstrip("/") + "/")

    def on_export_begin(self, path: str, src_rank: int, dst_rank: int,
                        daemon: Any = None) -> None:
        for other, (o_src, o_dst) in self._active.items():
            if self._overlaps(path, other):
                self.registry.report(
                    "migration", "single-owner",
                    f"export of {path} (rank {src_rank} -> {dst_rank}) "
                    f"overlaps in-flight migration of {other} "
                    f"(rank {o_src} -> {o_dst})", daemon=daemon)
                return
        self._active[path] = (src_rank, dst_rank)

    def on_import(self, path: str, rank: int, daemon: Any = None) -> None:
        active = self._active.get(path)
        if active is None:
            self.registry.report(
                "migration", "single-owner",
                f"rank {rank} imported subtree {path} with no active "
                "export — two MDSs would own it", daemon=daemon)
        elif active[1] != rank:
            self.registry.report(
                "migration", "single-owner",
                f"subtree {path} was being exported to rank "
                f"{active[1]} but rank {rank} imported it",
                daemon=daemon)

    def on_export_end(self, path: str, daemon: Any = None) -> None:
        self._active.pop(path, None)


def payload_digest(value: Any) -> int:
    """Content fingerprint of a payload: unchanged while nobody edits it."""
    try:
        return hash(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        # Not picklable (a lambda, a test-local class): compare by text.
        return hash(repr(value))


class WireSanitizer:
    """A posted payload belongs to the message; nobody edits it in flight.

    ``Daemon._post`` hands the payload object itself to the receiver, so
    the sender must not edit what it posted (it may re-send it on retry
    or have posted it to several peers), and a handler must not edit its
    request payload in place.  The payload is digested when posted,
    again on delivery and again when the handler completes.  A delivered
    response belongs to the caller and is not followed further.
    """

    def __init__(self, registry: SanitizerRegistry):
        self.registry = registry

    def on_post(self, env: Any) -> None:
        env.wire_digest = (id(env.payload), payload_digest(env.payload))

    def on_deliver(self, env: Any, daemon: Any = None) -> None:
        self._check(env, "between send and delivery (the sender edited "
                    "what it posted)", daemon)

    def on_complete(self, env: Any, daemon: Any = None) -> None:
        self._check(env, "while the handler ran (a handler must not edit "
                    "its request payload in place)", daemon)

    def _check(self, env: Any, when: str, daemon: Any) -> None:
        record = env.wire_digest
        if record is None or record[0] != id(env.payload):
            # Posted before the plane was installed, or a copy the fault
            # plane made (a duplicate or a corrupted frame).
            return
        if payload_digest(env.payload) != record[1]:
            self.registry.report(
                "wire", "payload-ownership",
                f"{env.kind} {env.method!r} {env.src} -> {env.dst}: the "
                f"payload changed {when}", daemon=daemon)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def install_sanitizers(sim: Any) -> SanitizerRegistry:
    """Attach a registry to ``sim`` (idempotent)."""
    if sim.sanitizers is not None:
        return sim.sanitizers
    registry = SanitizerRegistry(sim)
    sim.sanitizers = registry
    ACTIVE.append(registry)
    return registry
