"""Unit tests: error wire round-trips and cluster map behaviour."""

import pytest

from repro.errors import (
    AlreadyExists,
    MalacologyError,
    NotFound,
    StaleEpoch,
    TryAgain,
    WrongMDS,
    error_from_code,
)
from repro.monitor.maps import MDSMap, MonMap, OSDMap
from repro.monitor.store import MonitorStore


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def test_error_round_trips_through_wire_codes():
    for cls in (NotFound, AlreadyExists, StaleEpoch, TryAgain):
        err = cls("something happened")
        rebuilt = error_from_code(err.code, str(err))
        assert type(rebuilt) is cls
        assert str(rebuilt) == "something happened"


def test_unknown_code_degrades_to_base_error():
    rebuilt = error_from_code("EWHATEVER", "msg")
    assert type(rebuilt) is MalacologyError


def test_wrong_mds_preserves_rank_across_the_wire():
    err = WrongMDS(3)
    rebuilt = error_from_code(err.code, str(err))
    assert isinstance(rebuilt, WrongMDS)
    assert rebuilt.rank == 3


def test_wrong_mds_garbled_message_degrades_gracefully():
    rebuilt = error_from_code(WrongMDS.code, "garbage")
    assert isinstance(rebuilt, WrongMDS)
    assert rebuilt.rank == 0


# ----------------------------------------------------------------------
# MonMap
# ----------------------------------------------------------------------
def test_monmap_quorum_and_ranks():
    m = MonMap(epoch=1, mons=["c", "a", "b"])
    assert m.mons == ["a", "b", "c"]  # sorted: ranks are stable
    assert m.quorum_size == 2
    assert m.rank_of("a") == 0
    with pytest.raises(NotFound):
        m.rank_of("zz")


def test_monmap_quorum_sizes():
    assert MonMap(mons=["a"]).quorum_size == 1
    assert MonMap(mons=list("abcde")).quorum_size == 3


# ----------------------------------------------------------------------
# OSDMap
# ----------------------------------------------------------------------
def test_osdmap_membership_queries():
    m = OSDMap(epoch=3, osds={"osd0": "up", "osd1": "down"},
               pools={"p": {"size": 2, "pg_num": 8}})
    assert m.up_osds() == ["osd0"]
    assert m.all_osds() == ["osd0", "osd1"]
    assert m.is_up("osd0") and not m.is_up("osd1")
    assert not m.is_up("ghost")
    assert m.pool("p")["pg_num"] == 8
    with pytest.raises(NotFound):
        m.pool("ghost")


# ----------------------------------------------------------------------
# MDSMap
# ----------------------------------------------------------------------
def test_mdsmap_owner_longest_prefix():
    m = MDSMap(subtrees={"/": 0, "/a": 1, "/a/b": 2})
    assert m.owner_of("/") == 0
    assert m.owner_of("/zzz") == 0
    assert m.owner_of("/a") == 1
    assert m.owner_of("/a/x") == 1
    assert m.owner_of("/a/b") == 2
    assert m.owner_of("/a/b/deep/er") == 2
    # Component-wise: /ab is NOT under /a.
    assert m.owner_of("/ab") == 0


def test_mdsmap_rank_queries_and_round_trip():
    m = MDSMap(epoch=2, ranks={0: "mds0", 1: "mds1"},
               state={"mds0": "up", "mds1": "up"},
               balancer_version="v7",
               lease_policy={"mode": "quota", "quota": 10},
               routing_mode="proxy",
               subtrees={"/": 0, "/hot": 1})
    assert m.rank_holder(1) == "mds1"
    assert m.rank_holder(9) is None
    assert m.rank_of("mds1") == 1
    assert m.rank_of("ghost") is None
    assert m.active_ranks() == [0, 1]
    # The round trip through a monitor snapshot hands over the map
    # itself: a published map is a value, never edited afterwards.
    store = MonitorStore(["m0"])
    store.mdsmap = m
    other = MonitorStore(["m0"])
    other.restore(store.snapshot())
    assert other.mdsmap is m
    # Equal content is an equal map; a different kind never is.
    assert m == MDSMap(**vars(m))
    assert m != MDSMap(epoch=2) and m != OSDMap(epoch=2)
