"""Integration test: placement-group splitting (paper section 4.4)."""

from repro.core import MalacologyCluster
from repro.rados.placement import locate


def test_pg_split_reshards_and_preserves_data():
    c = MalacologyCluster.build(osds=4, mdss=0, seed=95,
                                pools={"data": {"size": 2, "pg_num": 4}})
    payloads = {f"obj-{i}": f"payload-{i}".encode() for i in range(24)}
    for oid, data in payloads.items():
        c.do(c.admin.rados_write_full("data", oid, data))

    # Quadruple the PG count; the OSDs re-shard in the background.
    c.do(c.admin.mon_submit([{
        "op": "map_update", "kind": "osd",
        "actions": [{"action": "set_pool_pg_num", "name": "data",
                     "pg_num": 16}]}]))
    c.run(15.0)

    # Every object is still readable through the new layout...
    for oid, data in payloads.items():
        assert c.do(c.admin.rados_read("data", oid)) == data
    # ... and physically lives where the new map says it should.
    osdmap = c.mons[0].store.osdmap
    assert osdmap.pool("data")["pg_num"] == 16
    by_name = {o.name: o for o in c.osds}
    for oid in payloads:
        pgid, acting = locate(osdmap, "data", oid)
        for member in acting:
            assert oid in by_name[member].pgs.get(("data", pgid), {}), (
                f"{oid} missing from {member} pg {pgid}")
    # Old-layout PGs were drained (no object sits in a stale PG).
    for osd in c.osds:
        for (pool, pgid), objects in osd.pgs.items():
            for oid in objects:
                from repro.rados.placement import pg_of

                assert pg_of(oid, 16) == pgid
