"""Seeded-fault tests: each sanitizer must catch its protocol break.

Every test injects a fault underneath the protocol layer (forged
message, corrupted bookkeeping, sabotaged epoch guard) and asserts the
named sanitizer fires with the causal RPC trace attached.  A final
test pins the other half of the TSan-style contract: clean runs report
nothing.
"""

import copy
from types import SimpleNamespace

import pytest

import tests.integration.test_core_interfaces as core_interfaces
from repro.analysis.sanitizers import ProtocolViolation, SanitizerRegistry
from repro.core import MalacologyCluster
from repro.monitor.store import MonitorStore
from repro.rados.osd import OSD
from repro.zlog import StripeLayout, ZLog


def build(seed, **kw):
    return MalacologyCluster.build(osds=2, mdss=1, mons=3, seed=seed,
                                   sanitize=True, **kw)


# ----------------------------------------------------------------------
# PaxosSanitizer
# ----------------------------------------------------------------------
def test_paxos_sanitizer_catches_divergent_commit():
    """A forged commit that disagrees with the chosen value must trip
    the one-value-per-instance invariant, naming both values."""
    c = build(101)
    san = c.sim.sanitizers
    assert san is not None and san.paxos._chosen, "nothing was chosen?"
    instance, (value, first_mon) = sorted(san.paxos._chosen.items())[0]
    victim = next(m.name for m in c.mons if m.name != first_mon)
    forged = {"id": "evil", "txns": [{"op": "kv_put", "key": "boom",
                                      "value": 666}]}

    def attack():
        yield c.admin.call(victim, "paxos_commit",
                           {"instance": instance, "value": forged})

    with pytest.raises(ProtocolViolation) as ei:
        c.do(c.admin.traced(attack(), "paxos-attack"))
    v = ei.value
    assert v.sanitizer == "paxos"
    assert v.invariant == "one-value-per-instance"
    assert f"instance {instance}" in v.message
    # The causal trace pins the offending RPC hop.
    assert v.trace is not None and "paxos_commit" in v.trace
    assert san.violations and san.violations[0] is v


def test_paxos_sanitizer_catches_epoch_regression():
    """Map epochs must be monotone per monitor (unit-level check)."""
    sim = SimpleNamespace(now=1.5, trace_collector=None)
    san = SanitizerRegistry(sim)
    san.paxos.on_epoch("mon0", "osd", 5)
    san.paxos.on_epoch("mon0", "osd", 6)
    with pytest.raises(ProtocolViolation) as ei:
        san.paxos.on_epoch("mon0", "osd", 4)
    assert ei.value.invariant == "monotone-epochs"
    # A different monitor has its own watermark.
    san2 = SanitizerRegistry(SimpleNamespace(now=0.0,
                                             trace_collector=None))
    san2.paxos.on_epoch("mon0", "osd", 5)
    san2.paxos.on_epoch("mon1", "osd", 1)  # fine: separate daemon
    assert san2.violations == []


# ----------------------------------------------------------------------
# CapabilitySanitizer
# ----------------------------------------------------------------------
def test_cap_sanitizer_catches_conflicting_grant():
    """Corrupt the MDS's cap table so it forgets the holder; the next
    grant hands the same inode to a second client — exactly the bug
    class the sanitizer exists for."""
    c = build(102)
    san = c.sim.sanitizers
    c.do(c.admin.fs_mkdir("/seq"))
    c.do(c.admin.fs_create("/seq/ctr", file_type="sequencer"))
    a, b = c.new_client("holder"), c.new_client("thief")
    assert c.sim.run_until_complete(a.do(a.seq_next("/seq/ctr"))) == 0

    # Fault injection: the MDS loses its bookkeeping of the grant
    # (as a lost-release bug would); the sanitizer still remembers.
    mds = c.mdss[0]
    assert mds.locker.held_inos(), "client A should hold the cap"
    mds.locker._caps.clear()

    with pytest.raises(ProtocolViolation) as ei:
        c.sim.run_until_complete(
            b.do(b.traced(b.seq_next("/seq/ctr"), "seq.acquire")))
    v = ei.value
    assert v.sanitizer == "caps"
    assert v.invariant == "exclusive-holder"
    assert "holder" in v.message and "thief" in v.message
    assert v.trace is not None and "open" in v.trace
    assert san.violations


def test_cap_sanitizer_catches_stuck_revoke():
    """A revoke that never completes must trip the liveness deadline."""
    sim = SimpleNamespace(now=0.0, trace_collector=None)
    san = SanitizerRegistry(sim)
    san.caps.on_grant("mds0", 7, "clientA", 1)
    san.caps.on_revoke_start("mds0", 7)
    sim.now = san.caps.REVOKE_DEADLINE + 1.0
    with pytest.raises(ProtocolViolation) as ei:
        san.finish()
    assert ei.value.invariant == "revoke-completes"
    assert "ino 7" in ei.value.message


# ----------------------------------------------------------------------
# ZLogEpochSanitizer
# ----------------------------------------------------------------------
def test_zlog_sanitizer_catches_stale_epoch_acceptance():
    """Sabotage the epoch guard in cls_zlog (a buggy interface
    upgrade): the OSD then accepts a write below the sealed epoch and
    the sanitizer must catch what the class no longer does."""
    c = build(103)
    san = c.sim.sanitizers
    log = ZLog(c.admin, "fenced", layout=StripeLayout("fenced", width=1))
    c.do(log.create())
    c.do(log.append("pre-seal"))
    oid = log.layout.object_of(0)

    # Seal every replica's object at a newer epoch, out of band of the
    # client (its cached epoch is now stale).
    c.do(c.admin.rados_exec(log.layout.pool, oid, "zlog", "seal",
                            {"epoch": 5}))

    # The sabotage: "upgrade" the zlog class on every OSD to a write
    # that forges a fresh epoch tag, skipping the fence check.
    for osd in c.osds:
        methods = osd.registry._classes["zlog"]["methods"]
        orig_write = methods["write"]
        methods["write"] = (
            lambda ctx, args, _orig=orig_write:
            _orig(ctx, {**args, "epoch": 10 ** 6}))

    assert log.epoch < 5  # the client will send a genuinely stale tag
    with pytest.raises(ProtocolViolation) as ei:
        c.do(c.admin.traced(log.append("stale-write"), "zlog.append"))
    v = ei.value
    assert v.sanitizer == "zlog"
    assert v.invariant == "epoch-fencing"
    assert oid in v.message and "epoch 1" in v.message
    assert v.trace is not None and "osd_op" in v.trace
    assert san.violations


# ----------------------------------------------------------------------
# MigrationSanitizer
# ----------------------------------------------------------------------
def test_migration_sanitizer_catches_unsolicited_import():
    """An mds_import with no matching export means two MDSs would both
    claim the subtree; the sanitizer fires on the import hop."""
    c = MalacologyCluster.build(osds=2, mdss=2, mons=3, seed=104,
                                sanitize=True)
    san = c.sim.sanitizers
    c.do(c.admin.fs_mkdir("/stolen"))

    def attack():
        yield c.admin.call("mds1", "mds_import",
                           {"path": "/stolen", "entries": {},
                            "popularity": {}})

    with pytest.raises(ProtocolViolation) as ei:
        c.do(c.admin.traced(attack(), "migration-attack"))
    v = ei.value
    assert v.sanitizer == "migration"
    assert v.invariant == "single-owner"
    assert "/stolen" in v.message
    assert v.trace is not None and "mds_import" in v.trace
    assert san.violations


def test_migration_sanitizer_catches_overlapping_exports():
    """Unit-level: freezing a subtree while an ancestor migrates."""
    san = SanitizerRegistry(SimpleNamespace(now=0.0,
                                            trace_collector=None))
    san.migration.on_export_begin("/a", 0, 1)
    with pytest.raises(ProtocolViolation):
        san.migration.on_export_begin("/a/b", 0, 2)
    # Disjoint subtrees may migrate concurrently.
    san2 = SanitizerRegistry(SimpleNamespace(now=0.0,
                                             trace_collector=None))
    san2.migration.on_export_begin("/a", 0, 1)
    san2.migration.on_export_begin("/b", 0, 2)
    san2.migration.on_import("/a", 1)
    san2.migration.on_export_end("/a")
    assert san2.violations == []


# ----------------------------------------------------------------------
# WireSanitizer (unit cases: tests/unit/test_msg_daemon.py)
# ----------------------------------------------------------------------
def test_wire_sanitizer_catches_a_replica_editing_the_repop(monkeypatch):
    """Sabotage: a replica edits the omap of the object it was sent.
    The primary posted the object it committed, so a replicated write
    fails."""
    apply_repop = OSD._h_repop

    def scribbling_repop(self, src, payload):
        if payload["state"] is not None:
            payload["state"].omap["scribbled"] = True
        return apply_repop(self, src, payload)

    monkeypatch.setattr(OSD, "_h_repop", scribbling_repop)
    c = build(105)
    with pytest.raises(ProtocolViolation) as ei:
        c.do(c.admin.rados_write_full("data", "obj", b"payload"))
    v = ei.value
    assert v.sanitizer == "wire"
    assert v.invariant == "payload-ownership"
    assert "'osd_repop'" in v.message


def _guards_on_the_committed_batch(self, key, value):
    """``MonitorStore._kv_put`` as it was before the copy moved ahead
    of the guards: a guard edits the batch every monitor shares."""
    value = self._apply_guards(key, value)
    entry = self.kv.get(key)
    version = (entry["version"] + 1) if entry else 1
    self.kv[key] = {"value": copy.deepcopy(value), "version": version}
    return version


def test_wire_sanitizer_catches_a_guard_editing_the_batch(monkeypatch):
    """The guard test passes sanitized (CI runs it so); with the copy
    moved back behind the guards it must fail."""
    monkeypatch.setattr(MonitorStore, "_kv_put",
                        _guards_on_the_committed_batch)
    c = MalacologyCluster.build(osds=4, mdss=1, seed=77, sanitize=True)
    with pytest.raises(ProtocolViolation) as ei:
        core_interfaces.test_service_metadata_guard_vets_writes(c)
    # The leader batches the submitted txn itself, so the guard edits
    # the admin's request while mon_submit waits for the commit.
    assert ei.value.sanitizer == "wire"
    assert "'mon_submit' admin -> mon" in ei.value.message


# ----------------------------------------------------------------------
# The TSan contract: clean runs are clean (that observation changes
# nothing is pinned in tests/integration/test_observer_transparency.py)
# ----------------------------------------------------------------------
def test_clean_run_reports_zero_violations():
    c = build(46)
    client = c.new_client("load")

    def work():
        yield from client.fs_mkdir("/d")
        for i in range(20):
            yield from client.fs_create(f"/d/f{i}")
        yield from client.fs_create("/d/seq", file_type="sequencer")
        for _ in range(5):
            yield from client.seq_next("/d/seq")

    c.sim.run_until_complete(client.do(work()))
    c.run(10.0)
    assert c.sanitizer_report() == []
    # The clean run still *observed* the protocols.
    assert c.sim.sanitizers.paxos._chosen
