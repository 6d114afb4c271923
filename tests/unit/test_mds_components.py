"""Unit tests for MDS components: inodes, caps, metrics, namespace."""

import pytest

from repro.errors import AlreadyExists, InvalidArgument, NotFound
from repro.mds.capability import (
    BEST_EFFORT,
    Capability,
    LeasePolicy,
    Locker,
    QUOTA,
    ROUND_TRIP,
)
from repro.mds.inode import (
    DIR,
    FILE,
    Inode,
    InoAllocator,
)
from repro.mds.metrics import DecayCounter, LoadTracker
from repro.mds.namespace import (
    NamespaceCache,
    basename,
    components,
    parent_of,
    under,
    validate_path,
)
from repro.mds.server import MDS
from repro.sim.event import Future


# ----------------------------------------------------------------------
# Inodes / file types
# ----------------------------------------------------------------------
def test_sequencer_type_next_is_gapless():
    inode = Inode(10, FILE, file_type="sequencer")
    positions = [inode.execute("next", {}) for _ in range(5)]
    assert positions == [0, 1, 2, 3, 4]
    assert inode.execute("read", {}) == 5


def test_sequencer_flush_is_monotonic():
    inode = Inode(10, FILE, file_type="sequencer")
    inode.merge_flush({"tail": 50})
    assert inode.embedded["tail"] == 50
    inode.merge_flush({"tail": 20})  # stale flush must not rewind
    assert inode.embedded["tail"] == 50


def test_inode_round_trip_serialization():
    inode = Inode(7, FILE, file_type="sequencer")
    inode.execute("next", {})
    clone = Inode.from_dict(inode.to_dict())
    assert clone.embedded == {"tail": 1}
    assert clone.ino == 7 and clone.version == inode.version
    inode.execute("next", {})  # embedded is edited in place ...
    assert clone.embedded == {"tail": 1}  # ... so to_dict copied it out


def test_ino_allocator_ranges_are_disjoint():
    a = InoAllocator(0)
    b = InoAllocator(1)
    a_set = {a.allocate() for _ in range(1000)}
    b_set = {b.allocate() for _ in range(1000)}
    assert not a_set & b_set


def test_unknown_file_type_rejected():
    with pytest.raises(NotFound):
        Inode(1, FILE, file_type="hologram")


# ----------------------------------------------------------------------
# Lease policies
# ----------------------------------------------------------------------
def test_lease_policy_validation():
    assert LeasePolicy.from_dict({}).mode == BEST_EFFORT
    with pytest.raises(InvalidArgument):
        LeasePolicy(mode="bogus")
    with pytest.raises(InvalidArgument):
        LeasePolicy(quota=-1)
    assert not LeasePolicy(mode=ROUND_TRIP).cacheable
    assert LeasePolicy(mode=QUOTA, quota=10).cacheable


# ----------------------------------------------------------------------
# Locker
# ----------------------------------------------------------------------
def _policy():
    return LeasePolicy(mode=BEST_EFFORT)


def test_locker_exclusive_grant_and_queueing():
    lk = Locker()
    cap_a = lk.try_grant(1, "a", 0.0, _policy())
    assert isinstance(cap_a, Capability)
    fut_b = lk.try_grant(1, "b", 0.0, _policy())
    assert isinstance(fut_b, Future) and not fut_b.done
    # Asking again while queued gives the same grant future.
    assert lk.try_grant(1, "b", 0.5, _policy()) is fut_b
    # Same holder re-grants.
    assert lk.try_grant(1, "a", 1.0, _policy()) is cap_a


def test_locker_release_grants_next_in_fifo_order():
    lk = Locker()
    cap = lk.try_grant(1, "a", 0.0, _policy())
    fut_b = lk.try_grant(1, "b", 0.0, _policy())
    fut_c = lk.try_grant(1, "c", 0.0, _policy())
    assert lk.release(1, "a", cap.seq)
    assert lk.next_waiter(1) == ("b", fut_b)
    assert lk.next_waiter(1) == ("c", fut_c)
    assert lk.next_waiter(1) is None


def test_locker_stale_release_ignored():
    lk = Locker()
    cap = lk.try_grant(1, "a", 0.0, _policy())
    assert not lk.release(1, "b", cap.seq)
    assert not lk.release(1, "a", cap.seq + 99)
    assert lk.holder_of(1) is cap


def test_locker_needs_revoke_only_with_waiters():
    lk = Locker()
    lk.try_grant(1, "a", 0.0, _policy())
    assert lk.needs_revoke(1) is None
    lk.try_grant(1, "b", 0.0, _policy())
    cap = lk.needs_revoke(1)
    assert cap is not None and cap.client == "a"
    lk.mark_revoking(1)
    assert lk.needs_revoke(1) is None  # one revoke in flight


def test_locker_drop_ino_hands_back_its_waiters():
    lk = Locker()
    lk.try_grant(1, "a", 0.0, _policy())
    lk.try_grant(2, "a", 0.0, _policy())
    fut_b = lk.try_grant(1, "b", 0.0, _policy())
    fut_c = lk.try_grant(1, "c", 0.0, _policy())
    fut_d = lk.try_grant(2, "d", 0.0, _policy())
    assert lk.queued() == [fut_b, fut_c, fut_d]
    assert lk.drop_ino(1) == [fut_b, fut_c]
    assert lk.holder_of(1) is None and lk.next_waiter(1) is None
    assert lk.holder_of(2).client == "a"
    assert lk.queued() == [fut_d]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_decay_counter_halves_per_halflife():
    c = DecayCounter(halflife=2.0)
    c.hit(0.0, 8.0)
    assert c.get(2.0) == pytest.approx(4.0)
    assert c.get(4.0) == pytest.approx(2.0)


def test_load_tracker_popularity_and_hottest():
    t = LoadTracker(halflife=10.0)
    for _ in range(10):
        t.record_request(0.0, "/hot", 1e-4)
    t.record_request(0.0, "/cold", 1e-4)
    hottest = t.hottest_inodes(0.0, limit=1)
    assert hottest[0][0] == "/hot"
    assert t.inode_popularity(0.0, "/hot") > t.inode_popularity(
        0.0, "/cold")


def test_load_tracker_cpu_util_bounded():
    t = LoadTracker(halflife=5.0)
    for i in range(1000):
        t.record_request(0.0, "/x", 1.0)
    assert t.cpu_util(0.0) == 1.0
    assert t.cpu_util(1e6) == pytest.approx(0.0, abs=1e-9)


def test_load_tracker_counts_a_pathless_request_without_popularity():
    t = LoadTracker(halflife=10.0)
    t.record_request(0.0, None, 1e-3)
    assert t.request_rate(0.0) == pytest.approx(1.0)
    assert t.cpu_util(0.0) > 0.0
    assert t.hottest_inodes(0.0) == []


def test_every_mds_op_declares_a_cost_except_ftype_exec():
    costs = {op: cost for op, (_, cost, _) in MDS._OPS.items()}
    assert [op for op, cost in costs.items() if cost is None] == [
        "ftype_exec"]
    assert all(cost > 0 for cost in costs.values() if cost is not None)
    uncounted = [op for op, (_, _, counted) in MDS._OPS.items()
                 if not counted]
    assert uncounted == ["cap_release"]


# ----------------------------------------------------------------------
# Namespace
# ----------------------------------------------------------------------
def test_path_validation_and_helpers():
    assert validate_path("//a//b/") == "/a/b"
    assert components("/a/b") == ["a", "b"]
    assert parent_of("/a/b") == "/a"
    assert parent_of("/a") == "/"
    assert basename("/a/b") == "b"
    assert under("/a/b", "/a")
    assert not under("/ab", "/a")
    with pytest.raises(InvalidArgument):
        validate_path("relative/path")
    with pytest.raises(InvalidArgument):
        validate_path("/a/../b")


def test_namespace_add_requires_parent_dir():
    ns = NamespaceCache()
    ns.add("/", Inode(1, DIR))
    with pytest.raises(NotFound):
        ns.add("/a/b", Inode(2, DIR))
    ns.add("/a", Inode(3, DIR))
    ns.add("/a/b", Inode(4, FILE))
    assert ns.listdir("/a") == ["b"]
    with pytest.raises(AlreadyExists):
        ns.add("/a", Inode(5, DIR))


def test_namespace_remove_refuses_nonempty_dir():
    ns = NamespaceCache()
    ns.add("/", Inode(1, DIR))
    ns.add("/d", Inode(2, DIR))
    ns.add("/d/f", Inode(3, FILE))
    with pytest.raises(InvalidArgument):
        ns.remove("/d")
    ns.remove("/d/f")
    ns.remove("/d")
    assert not ns.has("/d")


def test_namespace_subtree_extract_install_round_trip():
    ns = NamespaceCache()
    ns.add("/", Inode(1, DIR))
    ns.add("/keep", Inode(2, FILE))
    ns.add("/move", Inode(3, DIR))
    ns.add("/move/x", Inode(4, FILE))
    payload = ns.extract_subtree("/move")
    assert sorted(payload) == ["/move", "/move/x"]
    assert not ns.has("/move")
    # A remote dentry remains: the parent still lists the migrated
    # child even though its state and authority moved away.
    assert ns.listdir("/") == ["keep", "move"]

    other = NamespaceCache()
    other.add("/", Inode(1, DIR))
    other.install_subtree(payload)
    assert other.has("/move/x")
    assert other.listdir("/move") == ["x"]
