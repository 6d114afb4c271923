"""Integration tests: full RADOS cluster (monitors + OSDs + clients)."""

import pytest

from repro.core import MalacologyCluster
from repro.errors import AlreadyExists, NotFound, StaleEpoch
from repro.rados.placement import locate

COUNTER_SOURCE = """
def inc(ctx, args):
    n = ctx.xattr_get("count", 0) + args.get("by", 1)
    ctx.xattr_set("count", n)
    return {"count": n}

def get(ctx, args):
    return {"count": ctx.xattr_get("count", 0)}

METHODS = {"inc": inc, "get": get}
"""


@pytest.fixture(scope="module")
def cluster():
    return MalacologyCluster.build(osds=4, mdss=0, seed=11,
                                   pools={"data": {"size": 2, "pg_num": 32}})


def test_write_read_round_trip(cluster):
    c = cluster
    c.do(c.admin.rados_write_full("data", "greeting", b"hello world"))
    assert c.do(c.admin.rados_read("data", "greeting")) == b"hello world"


def test_append_returns_offsets(cluster):
    c = cluster
    assert c.do(c.admin.rados_append("data", "appendee", b"aaaa")) == 0
    assert c.do(c.admin.rados_append("data", "appendee", b"bb")) == 4
    assert c.do(c.admin.rados_read("data", "appendee")) == b"aaaabb"


def test_create_exclusive_conflicts(cluster):
    c = cluster
    c.do(c.admin.rados_create("data", "unique"))
    with pytest.raises(AlreadyExists):
        c.do(c.admin.rados_create("data", "unique"))


def test_read_missing_object_raises(cluster):
    with pytest.raises(NotFound):
        cluster.do(cluster.admin.rados_read("data", "missing-object"))


def test_omap_round_trip(cluster):
    c = cluster
    c.do(c.admin.rados_omap_set("data", "kv", "color", "teal"))
    assert c.do(c.admin.rados_omap_get("data", "kv", "color")) == "teal"


def test_op_list_is_atomic_on_failure(cluster):
    c = cluster
    ops = [
        {"op": "write_full", "data": b"should-not-land"},
        {"op": "omap_get", "key": "no-such-key"},  # fails
    ]
    with pytest.raises(NotFound):
        c.do(c.admin.rados_op("data", "atomic-check", ops))
    with pytest.raises(NotFound):
        c.do(c.admin.rados_read("data", "atomic-check"))


def test_writes_are_replicated_to_acting_set(cluster):
    c = cluster
    c.do(c.admin.rados_write_full("data", "replicated", b"x" * 100))
    c.run(2.0)
    osdmap = c.mons[0].store.osdmap
    pgid, acting = locate(osdmap, "data", "replicated")
    assert len(acting) == 2
    holders = [o for o in c.osds
               if ("data", pgid) in o.pgs and "replicated" in o.pgs[
                   ("data", pgid)]]
    assert sorted(o.name for o in holders) == sorted(acting)
    datas = {bytes(o.pgs[("data", pgid)]["replicated"].data)
             for o in holders}
    assert datas == {b"x" * 100}


def test_exec_bundled_class(cluster):
    c = cluster
    out = c.do(c.admin.rados_exec("data", "counter-obj", "numops", "add",
                                  {"key": "hits", "value": 3}))
    assert out == {"value": 3}


def test_dynamic_interface_install_and_exec(cluster):
    c = cluster
    c.do(c.admin.rados_install_interface("counter", 1, COUNTER_SOURCE,
                                         category="metadata"))
    c.run(3.0)  # gossip + install delay
    assert all(o.registry.has("counter") for o in c.osds)
    out = c.do(c.admin.rados_exec("data", "dyn-obj", "counter", "inc",
                                  {"by": 7}))
    assert out == {"count": 7}


def test_dynamic_interface_upgrade_without_restart(cluster):
    c = cluster
    v2 = COUNTER_SOURCE.replace('args.get("by", 1)', 'args.get("by", 100)')
    c.do(c.admin.rados_install_interface("counter", 2, v2,
                                         category="metadata"))
    c.run(3.0)
    assert all(o.registry.version_of("counter") == 2 for o in c.osds)
    out = c.do(c.admin.rados_exec("data", "dyn-obj2", "counter", "inc", {}))
    assert out == {"count": 100}


def test_zlog_class_over_the_wire_epoch_fencing(cluster):
    c = cluster
    c.do(c.admin.rados_exec("data", "log-obj", "zlog", "write",
                            {"epoch": 1, "pos": 0, "data": "e0"}))
    sealed = c.do(c.admin.rados_exec("data", "log-obj", "zlog", "seal",
                                     {"epoch": 2}))
    assert sealed == {"max_pos": 0}
    with pytest.raises(StaleEpoch):
        c.do(c.admin.rados_exec("data", "log-obj", "zlog", "write",
                                {"epoch": 1, "pos": 1, "data": "stale"}))


def _remove_interface(c, name):
    c.do(c.admin.mon_submit([{
        "op": "map_update", "kind": "osd",
        "actions": [{"action": "remove_interface", "name": name}]}]))


def _oid_per_primary(c, pool):
    """Primary OSD -> an object it leads, so execs reach every OSD."""
    osdmap = c.mons[0].store.osdmap
    found = {}
    for oid in (f"probe-{i}" for i in range(200)):
        found.setdefault(locate(osdmap, pool, oid)[1][0], oid)
    assert len(found) == len(c.osds)
    return found


def test_removed_interface_stops_running_on_every_osd(cluster):
    c = cluster
    c.do(c.admin.rados_install_interface("doomed", 1, COUNTER_SOURCE))
    c.run(3.0)
    oids = _oid_per_primary(c, "data")
    for oid in oids.values():
        assert c.do(c.admin.rados_exec("data", oid, "doomed", "inc",
                                       {})) == {"count": 1}
    _remove_interface(c, "doomed")
    c.run(3.0)
    assert not any(o.registry.has("doomed") for o in c.osds)
    for oid in oids.values():
        with pytest.raises(NotFound, match="no object class"):
            c.do(c.admin.rados_exec("data", oid, "doomed", "inc", {}))


def test_remove_interface_voids_an_install_in_flight():
    c = MalacologyCluster.build(osds=3, mdss=0, seed=12,
                                pools={"data": {"size": 2, "pg_num": 32}})
    for o in c.osds:
        # A fixed, slow compile so the removal lands mid-install.
        o.INTERFACE_INSTALL_MEDIAN = o.INTERFACE_INSTALL_CAP = 5.0
        o.INTERFACE_INSTALL_SIGMA = 0.0
    c.do(c.admin.rados_install_interface("late", 1, COUNTER_SOURCE))
    c.run(1.0)
    assert not any(o.registry.has("late") for o in c.osds)
    _remove_interface(c, "late")
    c.run(10.0)
    assert not any(o.registry.has("late") for o in c.osds)
