"""Unit tests for the repro.store backends and the batch EC path."""

import pytest

from repro.errors import InvalidArgument
from repro.rados.objects import StoredObject
from repro.store import (
    BACKEND_PROFILES,
    CacheEntry,
    CacheTier,
    ColdObject,
    ColdStore,
    LogRecord,
    LogStructuredStore,
    MemStore,
    make_store,
    normalize_backend,
    normalize_cache,
)
from repro.telemetry.counters import PerfCounters


def obj(oid, data=b"", version=1, omap=None, xattrs=None):
    o = StoredObject(oid)
    o.data = bytearray(data)
    o.omap = dict(omap or {})
    o.xattrs = dict(xattrs or {})
    o.version = version
    return o


# ----------------------------------------------------------------------
# Satellite: __slots__ memory discipline
# ----------------------------------------------------------------------
def test_record_types_have_no_instance_dict():
    instances = [
        StoredObject("o"),
        LogRecord("o", 1, StoredObject("o")),
        ColdObject("o", [b""], 0, {}, {}, 1),
        CacheEntry(StoredObject("o"), True, 0),
        MemStore(),
        LogStructuredStore(),
        ColdStore(),
        CacheTier(MemStore()),
    ]
    for inst in instances:
        assert not hasattr(inst, "__dict__"), type(inst).__name__
        with pytest.raises(AttributeError):
            inst.arbitrary_attribute = 1


# ----------------------------------------------------------------------
# MemStore: the pre-refactor semantics
# ----------------------------------------------------------------------
def test_memstore_is_free_and_keeps_live_references():
    s = MemStore()
    o = obj("a", b"data")
    assert s.commit(o) == 0.0
    got, delay = s.fetch("a")
    assert got is o and delay == 0.0  # live reference, like the old dict
    assert s["a"] is o
    missing, delay = s.fetch("nope")
    assert missing is None and delay == 0.0
    assert s.discard("a") == 0.0
    assert "a" not in s
    assert s.discard("a") == 0.0  # idempotent, like dict.pop(oid, None)


def test_memstore_iterates_in_insertion_order():
    s = MemStore()
    for oid in ["z", "a", "m"]:
        s[oid] = obj(oid)
    assert list(s) == ["z", "a", "m"]
    assert len(s) == 3
    del s["a"]
    assert list(s) == ["z", "m"]


# ----------------------------------------------------------------------
# LogStructuredStore
# ----------------------------------------------------------------------
def test_logstructured_append_and_read():
    s = LogStructuredStore()
    assert s.commit(obj("a", b"1", version=1)) == s.WRITE_DELAY
    got, delay = s.fetch("a")
    assert got.read() == b"1" and delay == s.READ_DELAY
    # Overwrite leaves the old record as garbage.
    s.commit(obj("a", b"2", version=2))
    assert s["a"].read() == b"2"
    assert s.garbage_ratio() == 0.5
    assert list(s) == ["a"]  # sorted, live index only


def test_logstructured_segments_seal_at_capacity():
    s = LogStructuredStore()
    for i in range(s.SEGMENT_RECORDS + 1):
        s.commit(obj(f"o{i:03d}"))
    assert s.status()["segments"] == 2


def test_logstructured_compaction_thresholds():
    s = LogStructuredStore()
    # Below the size floor: never compacts no matter the ratio.
    s.commit(obj("a", version=1))
    s.commit(obj("a", version=2))
    s.maintenance(now=1.0)
    assert s.compactions == 0
    assert s.eligible_garbage_ratio() == 0.0  # too small to matter
    # Push past the floor with >= 50% garbage: one tick compacts.
    for i in range(s.COMPACT_MIN_RECORDS):
        s.commit(obj("hot", version=10 + i))
    ratio_before = s.garbage_ratio()
    assert ratio_before >= s.COMPACT_RATIO
    s.maintenance(now=2.0)
    assert s.compactions == 1 and s.last_compaction == 2.0
    assert s.garbage_ratio() == 0.0
    assert s["hot"].version == 10 + s.COMPACT_MIN_RECORDS - 1
    assert s["a"].version == 2
    # flush() compacts any remaining garbage regardless of thresholds.
    del s["a"]
    s.flush(now=3.0)
    assert s.compactions == 2 and s.garbage_ratio() == 0.0
    assert "a" not in s


def test_logstructured_counters_flow_to_perf():
    perf = PerfCounters("osd-test")
    s = LogStructuredStore(perf=perf)
    s.commit(obj("a", version=1))
    s.fetch("a")
    dump = perf.dump()
    assert dump["counters"]["store.logstructured.append"] == 1
    assert dump["counters"]["store.logstructured.read"] == 1


# ----------------------------------------------------------------------
# ColdStore
# ----------------------------------------------------------------------
def test_coldstore_stages_then_batch_encodes_on_flush():
    perf = PerfCounters("osd-test")
    s = ColdStore(k=2, m=1, perf=perf)
    payloads = {f"o{i}": bytes([i]) * (10 + i) for i in range(5)}
    for oid, data in payloads.items():
        assert s.commit(obj(oid, data, omap={"n": oid})) == s.STAGE_DELAY
    assert s.staged_count() == 5 and s.encode_batches == 0
    s.maintenance(now=1.0)
    assert s.staged_count() == 0 and s.encode_batches == 1
    dump = perf.dump()
    assert dump["counters"]["store.coldstore.encode_batch"] == 1
    assert dump["counters"]["store.coldstore.encoded_objects"] == 5
    for oid, data in payloads.items():
        got, delay = s.fetch(oid)
        assert delay == s.COLD_READ_DELAY
        assert got.read() == data and got.omap == {"n": oid}


def test_coldstore_preserves_metadata_and_version_through_freeze():
    s = ColdStore()
    s.commit(obj("a", b"payload", version=7, omap={"k": 1},
                 xattrs={"x": "y"}))
    s.flush(now=0.5)
    got = s["a"]
    assert got.version == 7 and got.xattrs == {"x": "y"}
    assert got.omap == {"k": 1} and got.read() == b"payload"


def test_coldstore_mapping_plane_and_discard():
    s = ColdStore()
    s["a"] = obj("a", b"1")
    s.flush(now=0.0)
    s["b"] = obj("b", b"2")
    assert sorted(s) == ["a", "b"] and len(s) == 2
    # A re-write shadows the cold copy until the next flush.
    s.commit(obj("a", b"new", version=2))
    assert s["a"].read() == b"new"
    _, delay = s.fetch("a")
    assert delay == s.STAGE_DELAY  # hot again while staged
    assert s.discard("a") == s.STAGE_DELAY
    assert "a" not in s
    del s["b"]
    with pytest.raises(KeyError):
        del s["b"]
    missing, _ = s.fetch("zzz")
    assert missing is None


# ----------------------------------------------------------------------
# CacheTier
# ----------------------------------------------------------------------
def test_cache_write_back_is_deferred_until_maintenance():
    base = MemStore()
    tier = CacheTier(base, capacity=4, promote_reads=2)
    tier.commit(obj("a", b"dirty"))
    assert "a" not in base  # write-back: base untouched before the tick
    assert tier["a"].read() == b"dirty"  # but visible through the tier
    assert tier.dirty_count() == 1
    tier.maintenance(now=1.0)
    assert base["a"].read() == b"dirty"
    assert tier.dirty_count() == 0
    assert "a" in tier._entries  # still resident, now clean


def test_cache_hit_miss_and_promotion_threshold():
    perf = PerfCounters("osd-test")
    base = MemStore()
    tier = CacheTier(base, capacity=4, promote_reads=2, perf=perf)
    base.commit(obj("cold", b"v"))
    got, d1 = tier.fetch("cold")  # miss 1: counted, not promoted
    assert got.read() == b"v" and d1 == tier.MISS_DELAY
    assert "cold" not in tier._entries
    tier.fetch("cold")            # miss 2: crosses promote_reads
    assert "cold" in tier._entries
    _, d3 = tier.fetch("cold")    # now a hit
    assert d3 == tier.HIT_DELAY
    counters = perf.dump()["counters"]
    assert counters["store.cache.hit"] == 1
    assert counters["store.cache.miss"] == 2
    assert counters["store.cache.promote"] == 1


def test_cache_never_evicts_dirty_entries():
    tier = CacheTier(MemStore(), capacity=2, promote_reads=1)
    for i in range(5):
        tier.commit(obj(f"o{i}", b"d"))
    # All five are dirty: nothing may be evicted, capacity or not.
    assert len(tier._entries) == 5
    assert tier.utilization() > 1.0  # the CACHE_TIER_FULL condition
    tier.maintenance(now=1.0)
    # Write-back first, then clean eviction down to capacity.
    assert tier.dirty_count() == 0
    assert len(tier._entries) == 2
    for i in range(5):  # nothing lost: evictees live in the base
        assert tier[f"o{i}"].read() == b"d"


def test_cache_eviction_is_lru_by_logical_clock():
    tier = CacheTier(MemStore(), capacity=2, promote_reads=1)
    for oid in ["a", "b", "c"]:
        tier.commit(obj(oid))
    tier.maintenance(now=1.0)  # all clean; evicts "a" (oldest)
    assert sorted(tier._entries) == ["b", "c"]
    tier.fetch("b")  # refresh b
    tier.commit(obj("d"))
    tier.maintenance(now=2.0)  # c is now the LRU clean entry
    assert sorted(tier._entries) == ["b", "d"]


def test_cache_zero_cost_plane_writes_through_and_invalidates():
    base = MemStore()
    tier = CacheTier(base, capacity=4, promote_reads=1)
    tier.commit(obj("a", b"stale", version=1))
    # Recovery-style authoritative install supersedes the dirty copy.
    tier["a"] = obj("a", b"authoritative", version=5)
    assert base["a"].read() == b"authoritative"
    assert "a" not in tier._entries
    assert tier["a"].version == 5
    # Union view and removal semantics.
    tier.commit(obj("b"))
    assert sorted(tier) == ["a", "b"] and len(tier) == 2
    del tier["b"]
    assert "b" not in tier
    with pytest.raises(KeyError):
        del tier["zzz"]
    assert tier.discard("a") >= tier.WRITE_DELAY
    assert len(tier) == 0


def test_cache_over_coldstore_accelerates_repeat_reads():
    base = ColdStore(k=2, m=1)
    tier = CacheTier(base, capacity=8, promote_reads=1)
    tier.commit(obj("a", b"payload"))
    tier.flush(now=1.0)  # write-back, then the cold store encodes
    assert base.encode_batches == 1
    tier._entries.clear()  # force the next read to the cold medium
    _, miss_delay = tier.fetch("a")
    assert miss_delay == base.COLD_READ_DELAY + tier.MISS_DELAY
    _, hit_delay = tier.fetch("a")  # promoted on first read
    assert hit_delay == tier.HIT_DELAY


# ----------------------------------------------------------------------
# Config normalization and the factory
# ----------------------------------------------------------------------
def test_normalize_backend_accepts_names_and_dicts():
    assert normalize_backend("memstore") == {"profile": "memstore"}
    assert normalize_backend({"profile": "coldstore"}) == {
        "profile": "coldstore", "k": 2, "m": 1}
    assert normalize_backend({"profile": "coldstore", "k": 4, "m": 2}) \
        == {"profile": "coldstore", "k": 4, "m": 2}
    for bad in ["rocksdb", {"profile": "nope"}, 7,
                {"profile": "coldstore", "k": 0},
                {"profile": "coldstore", "k": 200, "m": 90}]:
        with pytest.raises(InvalidArgument):
            normalize_backend(bad)


def test_normalize_cache_defaults_and_validation():
    assert normalize_cache({}) == {"capacity": 64, "promote_reads": 2}
    assert normalize_cache({"capacity": 8, "promote_reads": 1}) == {
        "capacity": 8, "promote_reads": 1}
    for bad in [None, "big", {"capacity": 0}, {"promote_reads": 0}]:
        with pytest.raises(InvalidArgument):
            normalize_cache(bad)


def test_make_store_dispatch():
    assert isinstance(make_store(), MemStore)
    assert isinstance(make_store("logstructured"), LogStructuredStore)
    cold = make_store({"profile": "coldstore", "k": 3, "m": 2})
    assert isinstance(cold, ColdStore)
    assert (cold.codec.k, cold.codec.m) == (3, 2)
    tier = make_store("coldstore", cache={"capacity": 16})
    assert isinstance(tier, CacheTier)
    assert isinstance(tier.base, ColdStore)
    assert tier.capacity == 16
    assert set(BACKEND_PROFILES) == {"memstore", "logstructured",
                                     "coldstore"}
