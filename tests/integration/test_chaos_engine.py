"""Integration tests: the chaos engine end to end.

Three guarantees pin the whole subsystem:

1. **Schedule transparency** — arming the engine with an empty
   schedule (store fault plane installed, injector attached, nothing
   firing) leaves the cluster's network tape byte-identical to a run
   that never saw the engine.  Chaos must be pay-for-what-you-inject
   (pinned with the other planes in ``test_observer_transparency.py``).
2. **Clean sweeps** — the shipped scenarios pass their oracles on
   representative seeds: faults are injected and fully healed.
3. **Oracle sensitivity** — sabotaging a real guard (the changelog
   object class's ``(producer, pseq)`` dedup) is *caught* by the
   oracles, delta-debugged to a minimal schedule, and emitted as a
   stamped replayable repro artifact.  A chaos rig that cannot detect
   a planted bug proves nothing about the bugs it fails to find.
"""

import json

import pytest

from repro.chaos import (
    NemesisSchedule,
    minimize_case,
    run_case,
    write_repro_artifact,
)
from repro.core import MalacologyCluster
from repro.errors import MalacologyError
from repro.objclass.bundled import cls_changelog
from repro.rados.placement import locate
from repro.store import StoreFaultPlane


# ----------------------------------------------------------------------
# Clean sweeps: shipped scenarios heal on representative seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario,seed", [
    ("rolling-crash", 3),
    ("net-chaos", 5),
    ("torn-store", 1),
    ("changelog-flap", 2),
])
def test_scenario_passes_oracles(scenario, seed):
    verdict = run_case(scenario, seed)
    assert verdict.error is None
    assert verdict.ok, [v.to_dict() for v in verdict.violations]
    # The run must have actually injected something: a no-fault pass
    # is vacuous.
    assert verdict.stats["schedule"]["ops"]
    engine = verdict.stats["engine"]
    assert engine["injector_faults"] + engine["store_faults"] > 0


# ----------------------------------------------------------------------
# Store faults land at the OSD's costed commits, never on the mapping plane
# ----------------------------------------------------------------------
def test_store_eio_hits_the_osd_commits_but_not_pg_push():
    c = MalacologyCluster.build(osds=3, mdss=0, seed=33,
                                pools={"data": {"size": 2, "pg_num": 32}})
    plane = StoreFaultPlane(c.sim.rng("chaos:store"),
                            clock=lambda: c.sim.now)
    for osd in c.osds:
        osd.store_faults = plane
    pgid, acting = locate(c.mons[0].store.osdmap, "data", "obj")
    by_name = {osd.name: osd for osd in c.osds}
    primary, replica = by_name[acting[0]], by_name[acting[1]]
    key = ("data", pgid)

    # EIO on the primary: the client write fails, nothing persists.
    plane.set_eio(1.0, targets={primary.name})
    with pytest.raises(MalacologyError, match="injected EIO"):
        c.do(c.admin.rados_write_full("data", "obj", b"v1"))
    assert all("obj" not in osd.pgs.get(key, {}) for osd in c.osds)

    # EIO on the replica: the primary commits, the repop fails.
    plane.set_eio(1.0, targets={replica.name})
    with pytest.raises(MalacologyError, match="injected EIO"):
        c.do(c.admin.rados_write_full("data", "obj", b"v2"))
    assert primary.pgs[key]["obj"].read() == b"v2"
    assert "obj" not in replica.pgs.get(key, {})
    assert plane.log[-1][1:] == ("eio", f"{replica.name}:obj")

    # The mapping plane is never faulted: a pg_push still lands.
    faults = plane.faults_injected
    push = {"pool": "data", "pg": pgid,
            "objects": {"obj": primary.pgs[key]["obj"]}}

    def push_to_replica():
        return (yield c.admin.call(replica.name, "pg_push", push))

    assert c.do(push_to_replica()) is True
    assert replica.pgs[key]["obj"].read() == b"v2"
    assert plane.faults_injected == faults


# ----------------------------------------------------------------------
# Oracle sensitivity: a planted dedup bug is caught and minimized
# ----------------------------------------------------------------------
def _without_dedup(orig):
    """An ``append`` that forgets every producer's pseq watermark —
    the retry-dedup guard is gone, so a client retry after a lost ack
    re-appends the same records at fresh seqs."""
    def no_dedup(ctx, args):
        ctx.xattr_set("chlog.pseq", {})
        return orig(ctx, args)
    return no_dedup


def test_sabotaged_dedup_is_caught_minimized_and_reproducible(
        monkeypatch, tmp_path):
    # The registry is copied per OSD at construction time, so the
    # patch must land in METHODS before run_case builds the cluster.
    orig = cls_changelog.METHODS["append"]
    monkeypatch.setitem(cls_changelog.METHODS, "append",
                        _without_dedup(orig))

    # changelog-flap seed 2: one append's ack is lost in a loss
    # window, the writer's rados_op retries, and without dedup the
    # batch lands twice.
    verdict = run_case("changelog-flap", 2)
    assert not verdict.ok
    assert any(v.oracle == "changelog" and "logged twice" in v.detail
               for v in verdict.violations), \
        [v.to_dict() for v in verdict.violations]

    full = NemesisSchedule.from_dict(verdict.stats["schedule"])
    minimal, final, runs = minimize_case("changelog-flap", 2, full)
    assert 1 <= len(minimal.ops) <= len(full.ops)
    assert not final.ok
    assert runs >= 1

    path = write_repro_artifact(
        str(tmp_path / "repro.json"), "changelog-flap", 2,
        full, minimal, final, runs)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "chaos-repro"
    assert doc["minimized_ops"] == len(minimal.ops)
    assert "python -m repro.chaos run" in doc["replay"]
    # The artifact's schedule replays: same seed + same schedule
    # reproduces the violation deterministically.
    replayed = NemesisSchedule.from_dict(doc["schedule"])
    again = run_case("changelog-flap", 2, schedule=replayed)
    assert not again.ok

    # And the guard itself is what the rig was testing: with dedup
    # restored, the very same minimal schedule is harmless.
    monkeypatch.setitem(cls_changelog.METHODS, "append", orig)
    healthy = run_case("changelog-flap", 2, schedule=replayed)
    assert healthy.ok, [v.to_dict() for v in healthy.violations]
