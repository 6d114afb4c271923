"""Failure-injection tests: OSD loss, recovery, scrub repair."""

import pytest

from repro.rados.placement import acting_set, locate
from repro.sim import FailureInjector
from repro.testing import build_rados_cluster


def test_acked_write_survives_primary_failure():
    c = build_rados_cluster(osd_count=4, seed=21)
    c.do(c.admin.rados_write_full("data", "precious", b"survive-me"))
    osdmap = c.mons[0].store.osdmap
    _, acting = locate(osdmap, "data", "precious")
    primary = next(o for o in c.osds if o.name == acting[0])
    primary.crash()
    # Peers detect the failure, report it, map churns, replica promotes.
    c.run(20.0)
    assert c.do(c.admin.rados_read("data", "precious")) == b"survive-me"


def test_recovery_restores_replication_factor():
    c = build_rados_cluster(osd_count=4, seed=22)
    c.do(c.admin.rados_write_full("data", "re-replicate", b"abc"))
    osdmap = c.mons[0].store.osdmap
    pgid, acting = locate(osdmap, "data", "re-replicate")
    victim = next(o for o in c.osds if o.name == acting[1])
    victim.crash()
    c.run(30.0)
    holders = [o for o in c.osds if o.alive
               and "re-replicate" in o.pgs.get(("data", pgid), {})]
    # A new replica was backfilled: replication factor is 2 again.
    assert len(holders) == 2
    new_map = c.mons[0].store.osdmap
    assert sorted(o.name for o in holders) == sorted(
        acting_set(new_map, "data", pgid))


def test_restarted_osd_rejoins_and_serves():
    c = build_rados_cluster(osd_count=3, seed=23)
    c.do(c.admin.rados_write_full("data", "obj-a", b"a"))
    victim = c.osds[0]
    victim.crash()
    c.run(15.0)
    victim.restart()
    c.run(15.0)
    assert c.mons[0].store.osdmap.is_up(victim.name)
    assert c.do(c.admin.rados_read("data", "obj-a")) == b"a"


def test_scrub_repairs_silent_corruption():
    c = build_rados_cluster(osd_count=3, seed=24)
    c.do(c.admin.rados_write_full("data", "scrubbed", b"clean-data"))
    c.run(1.0)
    osdmap = c.mons[0].store.osdmap
    pgid, acting = locate(osdmap, "data", "scrubbed")
    replica = next(o for o in c.osds if o.name == acting[1])
    # Corrupt the replica silently (bit rot).  Replicas share the object
    # the primary committed, so rot a copy and store that, as
    # StoreFaultPlane.flip_bit does: no version bump, no delay.
    rotted = replica.pgs[("data", pgid)]["scrubbed"].clone()
    rotted.data[0:5] = b"dirty"
    replica.pgs[("data", pgid)]["scrubbed"] = rotted
    # Scrub runs every SCRUB_INTERVAL (30 s); give it two cycles since it
    # round-robins one PG per tick.
    deadline = c.sim.now + 30.0 * (len(replica.pgs) + len(c.osds[0].pgs) + 2)
    while c.sim.now < deadline:
        c.run(10.0)
        if bytes(replica.pgs[("data", pgid)]["scrubbed"].data) == \
                b"clean-data":
            break
    assert bytes(
        replica.pgs[("data", pgid)]["scrubbed"].data) == b"clean-data"


# Every store backend profile, as pool configs.  The whole module runs
# sanitized (see conftest), so these also prove the recovery protocol
# stays violation-free no matter which backend serves the PGs.
BACKEND_POOLS = {
    "memstore": {"backend": "memstore"},
    "logstructured": {"backend": "logstructured"},
    "coldstore": {"backend": {"profile": "coldstore", "k": 2, "m": 1}},
    "cached": {"backend": "coldstore",
               "cache": {"capacity": 8, "promote_reads": 1}},
}


@pytest.mark.parametrize("profile", sorted(BACKEND_POOLS))
def test_acked_write_survives_primary_failure_on_every_backend(profile):
    cfg = {"size": 2, "pg_num": 16, **BACKEND_POOLS[profile]}
    c = build_rados_cluster(osd_count=4, seed=26,
                            pools={"data": cfg})
    payload = b"survive-" + profile.encode()
    c.do(c.admin.rados_write_full("data", "precious", payload))
    c.run(2.0)  # let flusher ticks freeze/write-back before the crash
    osdmap = c.mons[0].store.osdmap
    _, acting = locate(osdmap, "data", "precious")
    victim = next(o for o in c.osds if o.name == acting[0])
    victim.crash()
    c.run(20.0)
    assert c.do(c.admin.rados_read("data", "precious")) == payload
    victim.restart()
    c.run(15.0)
    assert c.mons[0].store.osdmap.is_up(victim.name)
    assert c.do(c.admin.rados_read("data", "precious")) == payload


@pytest.mark.parametrize("profile", sorted(BACKEND_POOLS))
def test_recovery_restores_replication_on_every_backend(profile):
    cfg = {"size": 2, "pg_num": 16, **BACKEND_POOLS[profile]}
    c = build_rados_cluster(osd_count=4, seed=27,
                            pools={"data": cfg})
    c.do(c.admin.rados_write_full("data", "re-replicate", b"abc"))
    c.run(2.0)
    osdmap = c.mons[0].store.osdmap
    pgid, acting = locate(osdmap, "data", "re-replicate")
    victim = next(o for o in c.osds if o.name == acting[1])
    victim.crash()
    c.run(30.0)
    # Backfill pushed through the store interface: the new replica's
    # backend holds the object regardless of profile.
    holders = [o for o in c.osds if o.alive
               and "re-replicate" in o.pgs.get(("data", pgid), {})]
    assert len(holders) == 2
    new_map = c.mons[0].store.osdmap
    assert sorted(o.name for o in holders) == sorted(
        acting_set(new_map, "data", pgid))


def test_monitor_failure_does_not_block_osd_io():
    c = build_rados_cluster(osd_count=3, seed=25)
    leader = next(m for m in c.mons if m.is_leader)
    c.do(c.admin.rados_write_full("data", "before", b"1"))
    leader.crash()
    c.run(5.0)
    # Established clients keep doing I/O from cached maps even while the
    # monitor quorum re-elects.
    c.do(c.admin.rados_write_full("data", "during", b"2"))
    assert c.do(c.admin.rados_read("data", "during")) == b"2"
