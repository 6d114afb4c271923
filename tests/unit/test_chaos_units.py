"""Unit tests: chaos building blocks that need no cluster.

Nemesis schedule round-trips and validation, the ddmin minimizer
against synthetic predicates, and the store fault plane (EIO, torn
commits, bit-rot) consulted on a real store, as the OSD does right
before each costed commit.
"""

import random

import pytest

from repro.chaos import NemesisOp, NemesisSchedule, minimize_schedule
from repro.errors import MalacologyError
from repro.rados.objects import StoredObject
from repro.store import MemStore, StoreFaultPlane


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def test_schedule_json_round_trip():
    sched = NemesisSchedule(name="demo", duration=30.0)
    sched.add("flap", at=2.0, target="osd1", down_for=3.0)
    sched.add("loss", at=5.0, src="*", dst="*", rate=0.1, lasts=4.0)
    sched.add("bitrot", at=9.0, pool="data", count=2)
    again = NemesisSchedule.from_json(sched.to_json())
    assert again.to_dict() == sched.to_dict()
    assert len(again) == 3
    assert again.ops[1].params["rate"] == 0.1


def test_schedule_validates_ops():
    with pytest.raises(ValueError):
        NemesisOp(kind="meteor-strike", at=1.0)
    with pytest.raises(ValueError):
        NemesisOp(kind="flap", at=-1.0)


def test_schedule_subset_is_a_deep_copy():
    sched = NemesisSchedule(name="demo")
    sched.add("flap", at=1.0, target="osd0", down_for=2.0)
    sched.add("crash", at=3.0, target="osd1")
    sub = sched.subset([1])
    assert [op.kind for op in sub.ops] == ["crash"]
    sub.ops[0].params["target"] = "changed"
    assert sched.ops[1].params["target"] == "osd1"


# ----------------------------------------------------------------------
# ddmin
# ----------------------------------------------------------------------
def _sched_of(n):
    sched = NemesisSchedule(name="synthetic")
    for i in range(n):
        sched.add("crash", at=float(i), target=f"osd{i}")
    return sched


def test_ddmin_finds_single_culprit():
    sched = _sched_of(8)

    def still_fails(candidate):
        return any(op.params["target"] == "osd5"
                   for op in candidate.ops)

    minimal, runs = minimize_schedule(sched, still_fails)
    assert [op.params["target"] for op in minimal.ops] == ["osd5"]
    assert runs > 0


def test_ddmin_finds_conjunction():
    """Failure requires two specific ops: both must survive."""
    sched = _sched_of(10)

    def still_fails(candidate):
        targets = {op.params["target"] for op in candidate.ops}
        return {"osd2", "osd7"} <= targets

    minimal, _runs = minimize_schedule(sched, still_fails)
    assert sorted(op.params["target"] for op in minimal.ops) \
        == ["osd2", "osd7"]


def test_ddmin_returns_unchanged_when_not_failing():
    sched = _sched_of(4)
    minimal, runs = minimize_schedule(sched, lambda _c: False)
    assert len(minimal.ops) == 4
    assert runs == 1  # only the initial confirmation run


# ----------------------------------------------------------------------
# Store fault plane
# ----------------------------------------------------------------------
def _plane(**kwargs):
    # mal: disable=MAL002 -- fixed-seed RNG in a kernel-free unit test
    return StoreFaultPlane(random.Random(1), clock=lambda: 0.0, **kwargs)


def _obj(oid, data=b"payload", omap=None):
    obj = StoredObject(oid)
    obj.write(0, data)
    if omap:
        obj.omap.update(omap)
    return obj


def _commit(plane, owner, store, obj):
    """The OSD's costed commit: the plane's check, then the commit."""
    plane.on_commit(owner, store, obj)
    return store.commit(obj)


def test_eio_raises_and_nothing_persists():
    plane = _plane()
    store = MemStore()
    plane.set_eio(1.0)
    with pytest.raises(MalacologyError):
        _commit(plane, "osd0", store, _obj("x"))
    assert "x" not in store
    assert plane.faults_injected == 1
    assert plane.log[0][1] == "eio"


def test_torn_commit_persists_frankenstein_state():
    plane = _plane()
    store = MemStore()
    old = _obj("x", data=b"old", omap={"k": "old"})
    _commit(plane, "osd0", store, old)
    plane.set_torn(1.0)
    new = _obj("x", data=b"new-data", omap={"k": "new"})
    new.version = old.version + 1
    with pytest.raises(MalacologyError):
        _commit(plane, "osd0", store, new)
    torn = store["x"]
    assert bytes(torn.data) == b"new-data"  # data made it to the medium
    assert torn.omap == {"k": "old"}        # metadata did not
    assert plane.log[-1][1] == "torn"


def test_fault_targets_limit_blast_radius():
    plane = _plane()
    hit, spared = MemStore(), MemStore()
    plane.set_eio(1.0, targets={"osd0"})
    with pytest.raises(MalacologyError):
        _commit(plane, "osd0", hit, _obj("x"))
    _commit(plane, "osd1", spared, _obj("x"))
    assert "x" in spared
    plane.clear()
    _commit(plane, "osd0", hit, _obj("x"))  # cleared plane passes all
    assert "x" in hit


def test_each_fault_kind_keeps_its_own_targets():
    """A targeted window of one kind never narrows the other kind, and
    every ``set_*`` call replaces that kind's targets."""
    plane = _plane()
    store = MemStore()
    plane.set_eio(1.0)
    plane.set_torn(0.5, targets={"osd3"})
    with pytest.raises(MalacologyError, match="EIO"):
        _commit(plane, "osd0", store, _obj("x"))
    plane.set_torn(0.0)
    plane.set_eio(0.0)
    plane.set_torn(1.0, targets={"osd3"})
    _commit(plane, "osd0", store, _obj("x"))  # torn spares osd0
    plane.set_torn(1.0)  # untargeted again: every OSD
    with pytest.raises(MalacologyError, match="torn"):
        _commit(plane, "osd0", store, _obj("x"))


def test_flip_bit_changes_data_without_version_bump():
    plane = _plane()
    store = MemStore()
    obj = _obj("x", data=b"\x00\x00\x00\x00")
    store["x"] = obj
    version = obj.version
    digest = obj.digest()
    assert plane.flip_bit(store, "x", owner="osd0") is True
    rotted = store["x"]
    assert rotted.version == version           # silent: no version bump
    assert rotted.digest() != digest           # but the digest catches it
    assert sum(bin(b).count("1") for b in rotted.data) == 1
    empty = StoredObject("y")
    store["y"] = empty
    assert plane.flip_bit(store, "y", owner="osd0") is False


def test_mutable_mapping_plane_is_never_faulted():
    """Repair traffic uses the mapping interface; it must always work,
    or injected faults would be unrecoverable by design.  The plane
    only acts when asked at a commit: a mapping write beside an active
    plane lands and draws nothing."""
    plane = _plane()
    store = MemStore()
    plane.set_eio(1.0)
    plane.set_torn(1.0)
    state = plane.rng.getstate()
    store["x"] = _obj("x")
    assert bytes(store["x"].data) == b"payload"
    assert plane.faults_injected == 0
    assert plane.rng.getstate() == state
