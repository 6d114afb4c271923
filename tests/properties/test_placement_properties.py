"""Property tests: placement stability (the CRUSH-like property)."""

from hypothesis import given, settings, strategies as st

from repro.monitor.maps import OSDMap
from repro.rados.placement import acting_set, pg_of


def make_map(up_names, size=2, pg_num=32):
    return OSDMap(
        epoch=1,
        osds={name: "up" for name in up_names},
        pools={"p": {"size": size, "pg_num": pg_num}},
    )


names = st.lists(st.integers(0, 40).map(lambda i: f"osd{i}"),
                 min_size=3, max_size=20, unique=True)


@given(names, st.integers(0, 31))
@settings(max_examples=200, deadline=None)
def test_acting_set_is_deterministic_and_sized(osds, pgid):
    m = make_map(osds)
    acting = acting_set(m, "p", pgid)
    assert acting == acting_set(m, "p", pgid)
    assert len(acting) == min(2, len(osds))
    assert len(set(acting)) == len(acting)
    assert all(o in osds for o in acting)


@given(names)
@settings(max_examples=100, deadline=None)
def test_removing_one_osd_only_moves_its_pgs(osds):
    """Minimal movement: PGs not touching the dead OSD keep their set."""
    m_before = make_map(osds)
    victim = sorted(osds)[0]
    survivors = [o for o in osds if o != victim]
    m_after = make_map(survivors)
    for pgid in range(32):
        before = acting_set(m_before, "p", pgid)
        after = acting_set(m_after, "p", pgid)
        if victim not in before:
            assert after == before
        else:
            # Only the victim's slot changes; other members keep their
            # relative order (rendezvous hashing's stability).
            kept = [o for o in before if o != victim]
            assert [o for o in after if o in kept] == kept


@given(st.text(min_size=1, max_size=20), st.integers(1, 128))
@settings(max_examples=200, deadline=None)
def test_pg_mapping_in_range_and_stable(oid, pg_num):
    pgid = pg_of(oid, pg_num)
    assert 0 <= pgid < pg_num
    assert pg_of(oid, pg_num) == pgid


# ----------------------------------------------------------------------
# pg_num changes (PG splitting) — the re-shard the OSDs react to
# ----------------------------------------------------------------------
def make_map_marked_down(names, down, size=2, pg_num=32):
    return OSDMap(
        epoch=2,
        osds={n: ("down" if n in down else "up") for n in names},
        pools={"p": {"size": size, "pg_num": pg_num}},
    )


@given(st.lists(st.text(min_size=1, max_size=12), min_size=1,
                max_size=30, unique=True),
       st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_pg_num_growth_reshards_consistently(oids, pg_num):
    """After a pg_num change every object lands in exactly one new PG,
    and re-sharding is a pure function — any two OSDs doing the split
    locally agree on where every object went."""
    old = {oid: pg_of(oid, pg_num) for oid in oids}
    grown = pg_num * 2
    new = {oid: pg_of(oid, grown) for oid in oids}
    assert all(0 <= p < grown for p in new.values())
    # Independent recomputation agrees (what _split_pgs relies on).
    assert new == {oid: pg_of(oid, grown) for oid in oids}
    # Shrinking back restores the original layout exactly.
    assert old == {oid: pg_of(oid, pg_num) for oid in oids}


@given(st.integers(1, 6), st.integers(0, 31))
@settings(max_examples=100, deadline=None)
def test_pg_num_change_does_not_disturb_acting_sets(factor, pgid):
    """Acting sets depend on (pool, pgid, membership) — a pg_num-only
    change never remaps a surviving pgid's OSDs."""
    osds = [f"osd{i}" for i in range(6)]
    before = make_map(osds, pg_num=32)
    after = make_map(osds, pg_num=32 * factor)
    assert acting_set(before, "p", pgid) == acting_set(after, "p", pgid)


# ----------------------------------------------------------------------
# Acting sets under OSD failures (down, not removed)
# ----------------------------------------------------------------------
@given(names, st.integers(0, 31))
@settings(max_examples=150, deadline=None)
def test_acting_set_skips_down_osds(osds, pgid):
    down = set(sorted(osds)[: len(osds) // 2])
    m = make_map_marked_down(osds, down)
    acting = acting_set(m, "p", pgid)
    assert not (set(acting) & down)
    up = [o for o in osds if o not in down]
    assert len(acting) == min(2, len(up))


@given(names, st.integers(0, 31))
@settings(max_examples=150, deadline=None)
def test_down_osd_promotes_next_in_rank_only(osds, pgid):
    """Marking one member down promotes the next-ranked OSD; survivors
    keep their relative order (minimal movement under failure)."""
    all_up = make_map(osds, size=2)
    before = acting_set(all_up, "p", pgid)
    victim = before[0]
    after = acting_set(make_map_marked_down(osds, {victim}), "p", pgid)
    assert victim not in after
    kept = [o for o in before if o != victim]
    assert list(after[: len(kept)]) == kept
    # A down OSD that was NOT in the set changes nothing.
    outsiders = [o for o in osds if o not in before]
    if outsiders:
        unchanged = acting_set(
            make_map_marked_down(osds, {outsiders[0]}), "p", pgid)
        assert unchanged == before


def test_acting_set_empty_when_all_osds_down():
    osds = ["osd0", "osd1", "osd2"]
    m = make_map_marked_down(osds, set(osds))
    assert acting_set(m, "p", 0) == ()
