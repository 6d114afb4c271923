"""Integration tests: RADOS watch/notify."""

import pytest

from repro.core import MalacologyCluster
from repro.rados.placement import locate


@pytest.fixture(scope="module")
def cluster():
    return MalacologyCluster.build(osds=4, mdss=0, seed=71)


def watcher_client(cluster, name):
    client = cluster.new_client(name)
    client.events = []
    return client


def test_notify_reaches_all_watchers(cluster):
    c = cluster
    c.do(c.admin.rados_write_full("data", "watched", b"x"))
    w1, w2 = watcher_client(c, "w1"), watcher_client(c, "w2")
    for w in (w1, w2):
        cb = (lambda events: lambda pool, oid, payload, notifier:
              events.append((oid, payload, notifier)))(w.events)
        c.sim.run_until_complete(
            w.do(w.rados_watch("data", "watched", cb)))
    count = c.do(c.admin.rados_notify("data", "watched",
                                      {"event": "updated"}))
    assert count == 2
    c.run(1.0)
    for w in (w1, w2):
        assert w.events == [("watched", {"event": "updated"}, "admin")]


def test_unwatch_stops_delivery(cluster):
    c = cluster
    c.do(c.admin.rados_write_full("data", "quiet", b"x"))
    w = watcher_client(c, "w3")
    cb = lambda pool, oid, payload, notifier: w.events.append(payload)
    c.sim.run_until_complete(w.do(w.rados_watch("data", "quiet", cb)))
    c.sim.run_until_complete(w.do(w.rados_unwatch("data", "quiet")))
    count = c.do(c.admin.rados_notify("data", "quiet", "ping"))
    assert count == 0
    c.run(1.0)
    assert w.events == []


def test_watches_are_volatile_across_osd_failover(cluster):
    """OSD-side watch sessions die with the primary.

    With the client's auto-re-watch guard opted out, this pins the raw
    librados semantics: the watch is lost on failover until the caller
    re-watches by hand.  (Guard-on recovery is covered in
    test_watch_storms.py.)
    """
    c = cluster
    c.do(c.admin.rados_write_full("data", "flappy", b"x"))
    w = watcher_client(c, "w4")
    w.WATCH_AUTO_REWATCH = False  # instance-level opt-out
    cb = lambda pool, oid, payload, notifier: w.events.append(payload)
    c.sim.run_until_complete(w.do(w.rados_watch("data", "flappy", cb)))
    osdmap = c.mons[0].store.osdmap
    _, acting = locate(osdmap, "data", "flappy")
    primary = next(o for o in c.osds if o.name == acting[0])
    primary.crash()
    c.run(20.0)  # failure detected, new primary promoted
    # The watch died with the primary; re-watching on the new primary
    # restores delivery (librados semantics).
    count = c.do(c.admin.rados_notify("data", "flappy", "lost"))
    assert count == 0
    c.sim.run_until_complete(w.do(w.rados_watch("data", "flappy", cb)))
    count = c.do(c.admin.rados_notify("data", "flappy", "back"))
    assert count == 1
    c.run(1.0)
    assert w.events == ["back"]


def test_watch_and_notify_refresh_a_map_that_predates_the_pool(cluster):
    """Watch and notify take the same map-refreshing loop as ops.

    ``b`` caches the OSD map before pool ``fresh`` exists; placing an
    object in it fails until the client refreshes the map.
    """
    c = cluster
    b = watcher_client(c, "b")
    c.sim.run_until_complete(b.do(b.mon_get_map("osd")))
    c.do(c.admin.rados_create_pool("fresh", size=2, pg_num=8))
    c.do(c.admin.rados_write_full("fresh", "o", b"x"))
    assert "fresh" not in b.cached_maps["osd"].pools
    count = c.sim.run_until_complete(
        b.do(b.rados_notify("fresh", "o", "hello")))
    assert count == 0
    cb = lambda pool, oid, payload, notifier: b.events.append(payload)
    primary = c.sim.run_until_complete(
        b.do(b.rados_watch("fresh", "o", cb)))
    _, acting = locate(c.mons[0].store.osdmap, "fresh", "o")
    assert primary == acting[0]
    assert c.do(c.admin.rados_notify("fresh", "o", "again")) == 1
    c.run(1.0)
    assert b.events == ["again"]
