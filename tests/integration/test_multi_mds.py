"""Integration tests: multi-MDS namespace distribution."""

import pytest

from repro.core import LoadBalancingInterface, MalacologyCluster
from repro.errors import NotFound


@pytest.fixture(scope="module")
def cluster():
    return MalacologyCluster.build(osds=4, mdss=3, seed=81)


def migrate(cluster, path, target):
    src_rank = cluster.mons[0].store.mdsmap.owner_of(path)
    src = cluster.mds_of_rank(src_rank)
    cluster.sim.run_until_complete(
        src.spawn(src.migrate_subtree(path, target)))


def test_namespace_spans_ranks_transparently(cluster):
    c = cluster
    c.do(c.admin.fs_mkdir("/tenant-a"))
    c.do(c.admin.fs_mkdir("/tenant-b"))
    migrate(c, "/tenant-a", 1)
    migrate(c, "/tenant-b", 2)
    # Clients create/list through whichever rank owns each subtree.
    c.do(c.admin.fs_create("/tenant-a/f1"))
    c.do(c.admin.fs_create("/tenant-b/f2"))
    assert c.do(c.admin.fs_readdir("/tenant-a")) == ["f1"]
    assert c.do(c.admin.fs_readdir("/tenant-b")) == ["f2"]
    assert c.do(c.admin.fs_readdir("/")) == ["tenant-a", "tenant-b"]
    # The data genuinely lives on different ranks.
    assert c.mds_of_rank(1).ns.has("/tenant-a/f1")
    assert c.mds_of_rank(2).ns.has("/tenant-b/f2")
    assert not c.mds_of_rank(0).ns.has("/tenant-a/f1")


def test_nested_migration_most_specific_owner_wins(cluster):
    c = cluster
    c.do(c.admin.fs_mkdir("/outer"))
    c.do(c.admin.fs_mkdir("/outer/inner"))
    c.do(c.admin.fs_create("/outer/inner/leaf"))
    migrate(c, "/outer", 1)
    migrate(c, "/outer/inner", 2)
    m = c.mons[0].store.mdsmap
    assert m.owner_of("/outer") == 1
    assert m.owner_of("/outer/inner/leaf") == 2
    # Ops route correctly at every level.
    c.do(c.admin.fs_create("/outer/file-at-1"))
    c.do(c.admin.fs_create("/outer/inner/file-at-2"))
    assert c.mds_of_rank(1).ns.has("/outer/file-at-1")
    assert c.mds_of_rank(2).ns.has("/outer/inner/file-at-2")


def test_migration_round_trip_returns_home(cluster):
    c = cluster
    c.do(c.admin.fs_mkdir("/boomerang"))
    c.do(c.admin.fs_create("/boomerang/f", file_type="sequencer"))
    for _ in range(3):
        c.do(c.admin.seq_next("/boomerang/f"))
    migrate(c, "/boomerang", 2)
    migrate(c, "/boomerang", 0)
    assert c.mons[0].store.mdsmap.owner_of("/boomerang") == 0
    assert c.mds_of_rank(0).ns.has("/boomerang/f")
    # State survived two hops.
    assert c.do(c.admin.seq_next("/boomerang/f")) == 3


def test_unlink_after_migration_updates_rados(cluster):
    c = cluster
    c.do(c.admin.fs_mkdir("/ephemeral"))
    c.do(c.admin.fs_create("/ephemeral/gone"))
    migrate(c, "/ephemeral", 1)
    c.do(c.admin.fs_unlink("/ephemeral/gone"))
    with pytest.raises(NotFound):
        c.do(c.admin.fs_stat("/ephemeral/gone"))
    with pytest.raises(NotFound):
        c.do(c.admin.rados_omap_get("metadata", "mdsdir:/ephemeral",
                                    "gone"))


def test_migrated_subtree_survives_new_owner_restart():
    c = MalacologyCluster.build(osds=4, mdss=2, seed=82)
    c.do(c.admin.fs_mkdir("/persistent"))
    c.do(c.admin.fs_create("/persistent/f", file_type="sequencer"))
    src = c.mds_of_rank(0)
    c.sim.run_until_complete(src.spawn(
        src.migrate_subtree("/persistent", 1)))
    c.run(1.0)
    owner = c.mds_of_rank(1)
    owner.crash()
    c.run(2.0)
    owner.restart()
    c.run(10.0)
    # Rank 1 reloaded its subtree from RADOS.
    st = c.do(c.admin.fs_stat("/persistent/f"))
    assert st["file_type"] == "sequencer"


def test_proxy_forward_is_load_but_not_popularity():
    c = MalacologyCluster.build(osds=3, mdss=2, seed=83)
    c.do(c.admin.fs_mkdir("/remote"))
    c.do(c.admin.fs_create("/remote/f"))
    migrate(c, "/remote", 1)
    c.do(LoadBalancingInterface(c.admin).set_routing_mode("proxy"))
    c.run(60.0)  # let rank 0's earlier load decay away
    proxy = c.mds_of_rank(0)
    before = proxy.tracker.snapshot(c.sim.now)
    hottest_before = proxy.tracker.hottest_inodes(c.sim.now, limit=64)
    assert c.do(c.admin.fs_stat("/remote/f"))["kind"] == "file"
    assert proxy.perf.get("op.forward") == 1
    after = proxy.tracker.snapshot(c.sim.now)
    assert after["load"] > before["load"] + 0.5
    assert after["cpu"] > before["cpu"]
    # The relayed inode belongs to rank 1: no popularity entry here.
    assert [p for p, _ in proxy.tracker.hottest_inodes(
        c.sim.now, limit=64)] == [p for p, _ in hottest_before]
