"""Integration tests: pluggable store backends, tiered pools, health.

The two spine guarantees of the store refactor:

* **schedule identity** — a default (all-MemStore) cluster replays the
  exact pre-refactor event schedule, pinned here against a golden tape
  digest captured at the commit immediately before the refactor;
* **durability everywhere** — every backend profile survives OSD
  crash, restart, and failover, because recovery/rebalance/scrub all
  route through the ObjectStore interface.
"""

import hashlib

import pytest

from repro.core import MalacologyCluster
from repro.mgr.health import (
    ClusterSample,
    cache_tier_full,
    compaction_stalled,
    sample_cluster,
)
from repro.mgr.prometheus import parse_prometheus_text
from repro.rados.placement import locate

# Captured from the commit immediately before the store refactor: the
# (send count, sha256) of the full network tape for the workload below
# on a default cluster.  Any new event, reordering, or payload change
# in the default configuration breaks this digest.
GOLDEN_SENDS = 354
GOLDEN_DIGEST = \
    "b59f564d1bcedcec8731e584b090c0437d8ced60cb7287b888cd6edae8bc9423"


def test_default_memstore_schedule_matches_prerefactor_tape():
    c = MalacologyCluster.build(osds=3, mdss=1, mons=3, seed=1234)
    tape = []
    orig = c.net.send

    def spy(src, dst, msg):
        tape.append((round(c.sim.now, 9), src, dst,
                     getattr(msg, "method", None)
                     or getattr(msg, "kind", None)))
        return orig(src, dst, msg)

    c.net.send = spy
    client = c.new_client("load")

    def work():
        yield from client.fs_mkdir("/d")
        for i in range(10):
            yield from client.fs_create(f"/d/f{i}")
        for i in range(12):
            yield from client.rados_write_full("data", f"obj{i}",
                                               bytes([i]) * 64)
        for i in range(12):
            got = yield from client.rados_read("data", f"obj{i}")
            assert got == bytes([i]) * 64
        for i in range(6):
            yield from client.rados_append("data", "log", b"x" * 16)
        yield from client.rados_omap_set("data", "obj0", "k", {"v": 1})

    c.sim.run_until_complete(client.do(work()))
    c.run(10.0)
    h = hashlib.sha256()
    for entry in tape:
        h.update(repr(entry).encode())
    assert (len(tape), h.hexdigest()) == (GOLDEN_SENDS, GOLDEN_DIGEST)


# ----------------------------------------------------------------------
# Tiered pools end to end
# ----------------------------------------------------------------------
TIERED_POOLS = {
    "fast": {"size": 2, "pg_num": 16, "backend": "memstore"},
    "logged": {"size": 2, "pg_num": 16, "backend": "logstructured"},
    "cold": {"size": 2, "pg_num": 16,
             "backend": {"profile": "coldstore", "k": 2, "m": 1}},
    "cachedcold": {"size": 2, "pg_num": 16, "backend": "coldstore",
                   "cache": {"capacity": 8, "promote_reads": 1}},
}


def build_tiered(seed=7, extra_pools=None, **kw):
    pools = dict(MalacologyCluster.DEFAULT_POOLS)
    pools.update(extra_pools if extra_pools is not None else TIERED_POOLS)
    return MalacologyCluster.build(osds=3, mdss=1, seed=seed,
                                   pools=pools, **kw)


@pytest.fixture(scope="module")
def tiered():
    c = build_tiered()
    def work():
        for pool in sorted(TIERED_POOLS):
            for i in range(6):
                yield from c.admin.rados_write_full(
                    pool, f"{pool}-obj{i}", f"{pool}:{i}".encode() * 8)
    c.do(work())
    c.run(5.0)  # flusher/compaction ticks, write-back, replication
    return c


def test_all_backends_roundtrip_reads(tiered):
    for pool in sorted(TIERED_POOLS):
        for i in range(6):
            got = tiered.do(tiered.admin.rados_read(pool, f"{pool}-obj{i}"))
            assert got == f"{pool}:{i}".encode() * 8


def test_store_status_reports_profiles(tiered):
    status = tiered.store_status()
    profiles = set()
    for osd_report in status.values():
        profiles.update(osd_report["profiles"])
        for pg, st in osd_report["pgs"].items():
            if pg.startswith("cachedcold/"):
                assert st["profile"] == "cache"
                assert st["base"]["profile"] == "coldstore"
    assert {"memstore", "logstructured", "coldstore", "cache"} <= profiles
    # Pool filter narrows to one pool's PGs.
    only_cold = tiered.store_status(pool="cold")
    for osd_report in only_cold.values():
        assert all(pg.startswith("cold/") for pg in osd_report["pgs"])
        for st in osd_report["pgs"].values():
            assert st["profile"] == "coldstore"
            assert st["k"] == 2 and st["m"] == 1


def test_background_maintenance_ran(tiered):
    """The lazy store ticker started and did real work: cold batches
    encoded and cache write-backs happened somewhere in the cluster."""
    totals = {}
    for osd in tiered.osds:
        for name, val in osd.perf.dump()["counters"].items():
            if name.startswith("store."):
                totals[name] = totals.get(name, 0) + val
    assert totals.get("store.coldstore.encode_batch", 0) > 0
    assert totals.get("store.cache.writeback", 0) > 0
    assert totals.get("store.cache.flush", 0) > 0


def test_backend_data_survives_crash_failover_and_restart():
    c = build_tiered(seed=11)
    def work():
        for pool in sorted(TIERED_POOLS):
            yield from c.admin.rados_write_full(
                pool, "precious", b"keep-" + pool.encode())
    c.do(work())
    c.run(3.0)  # replicate + let flusher ticks freeze/writeback
    osdmap = c.mons[0].store.osdmap
    _, acting = locate(osdmap, "cold", "precious")
    victim = next(o for o in c.osds if o.name == acting[0])
    victim.crash()
    c.run(20.0)  # failure report, map churn, replica promotion
    for pool in sorted(TIERED_POOLS):
        got = c.do(c.admin.rados_read(pool, "precious"))
        assert got == b"keep-" + pool.encode()
    victim.restart()
    c.run(20.0)
    assert c.mons[0].store.osdmap.is_up(victim.name)
    for pool in sorted(TIERED_POOLS):
        got = c.do(c.admin.rados_read(pool, "precious"))
        assert got == b"keep-" + pool.encode()


def test_pg_split_preserves_every_backend():
    c = build_tiered(seed=13)
    def work():
        for pool in sorted(TIERED_POOLS):
            for i in range(8):
                yield from c.admin.rados_write_full(
                    pool, f"s{i}", f"{pool}/{i}".encode())
    c.do(work())
    c.run(3.0)
    def grow():
        for pool in sorted(TIERED_POOLS):
            yield from c.admin.mon_submit([{
                "op": "map_update", "kind": "osd",
                "actions": [{"action": "set_pool_pg_num",
                             "name": pool, "pg_num": 32}]}])
    c.do(grow())
    c.run(20.0)  # re-shard + rebalance pushes converge
    for pool in sorted(TIERED_POOLS):
        for i in range(8):
            got = c.do(c.admin.rados_read(pool, f"s{i}"))
            assert got == f"{pool}/{i}".encode()


# ----------------------------------------------------------------------
# Health checks and telemetry surface
# ----------------------------------------------------------------------
def test_cache_tier_full_fires_then_clears():
    # One PG so every object lands in the same small cache.
    c = build_tiered(seed=17, extra_pools={
        "squeezed": {"size": 2, "pg_num": 1, "backend": "memstore",
                     "cache": {"capacity": 4, "promote_reads": 2}}})
    def work():
        for i in range(12):
            yield from c.admin.rados_write_full("squeezed", f"o{i}", b"x")
    c.do(work())
    # Sampled before the next flusher tick: 12 dirty entries pinned in
    # a capacity-4 cache.
    report = c.health()
    full = report["checks"].get("CACHE_TIER_FULL")
    assert full is not None and full["status"] == "HEALTH_WARN"
    assert any(d["utilization"] > 1.0
               for d in full["detail"]["osds"].values())
    c.run(3.0)  # write-back + clean eviction on the store ticker
    assert "CACHE_TIER_FULL" not in c.health()["checks"]


def test_compaction_stalled_check_on_fabricated_series():
    sample = ClusterSample(time=10.0)
    sample.roles["osd0"] = "osd"
    series = sample.series_of("osd0")
    for t in (2.0, 4.0, 6.0, 8.0, 10.0):
        series.observe_dump(t, {
            "counters": {"store.logstructured.compaction": 3},
            "gauges": {"store.log.garbage_ratio": 0.7},
        })
    result = compaction_stalled(sample)
    assert result is not None and result.status == "HEALTH_WARN"
    assert result.detail["osds"]["osd0"] == pytest.approx(0.7)
    # Once the compaction counter moves inside the window, it clears.
    series.observe_dump(11.0, {
        "counters": {"store.logstructured.compaction": 4},
        "gauges": {"store.log.garbage_ratio": 0.2},
    })
    assert compaction_stalled(sample) is None


def test_cache_tier_full_check_skips_cacheless_osds():
    sample = ClusterSample(time=1.0)
    sample.roles["osd0"] = "osd"
    # The gauge is None on OSDs hosting no cache tier.
    sample.dumps["osd0"] = {"gauges": {"store.cache.utilization": None}}
    assert cache_tier_full(sample) is None


def test_log_garbage_gauge_feeds_mgr_series():
    c = build_tiered(seed=19)
    def work():
        for i in range(40):  # overwrite churn: garbage accumulates
            yield from c.admin.rados_write_full("logged", "hot",
                                                bytes([i % 251]))
    c.do(work())
    series = {}
    sample_cluster(c, series=series)
    paths = set()
    for osd in c.osds:
        paths.update(series[osd.name].paths())
    assert "gauge:store.log.garbage_ratio" in paths
    # Compaction keeps reclaiming on ticks; after settling, no OSD
    # carries eligible garbage debt and the stall check stays silent.
    c.run(6.0)
    report = c.health()
    assert "COMPACTION_STALLED" not in report["checks"]


def test_prometheus_exports_store_metrics():
    c = build_tiered(seed=23, mgr=True)
    def work():
        for i in range(8):
            yield from c.admin.rados_write_full("cachedcold", f"p{i}",
                                                b"y" * 32)
    c.do(work())
    c.run(6.0)  # scrape periods
    samples = parse_prometheus_text(
        c.daemon_command("mgr0", "metrics.export"))
    gauge_names = {s.labels["name"] for s in samples
                   if s.metric == "repro_gauge"}
    assert "store.cache.utilization" in gauge_names
    assert "store.cache.dirty" in gauge_names
    counter_names = {s.labels["name"] for s in samples
                     if s.metric == "repro_counter_total"}
    assert any(n.startswith("store.cache.") for n in counter_names)
    assert any(n.startswith("store.coldstore.") for n in counter_names)
