"""Integration: the per-map placement memo is derived data, never content.

``OSDMap`` keeps ``up_osds()`` and every ``acting_set`` answer computed
from it.  That is only sound because a published map is a value, so
the memo must agree with a fresh computation on every map a run
publishes, through OSD flaps and a ``pg_num`` split, and it must stay
invisible to ``==``, pickle and ``copy.deepcopy`` (the wire sanitizer
compares pickles of a ``map_notify`` payload at send and delivery).
"""

import copy
import pickle

from repro.core import MalacologyCluster
from repro.monitor.maps import OSDMap
from repro.monitor.store import MonitorStore
from repro.rados.placement import acting_set


def test_every_memoized_answer_matches_a_fresh_computation(monkeypatch):
    published = []
    map_update = MonitorStore._map_update

    def recording(self, kind, actions):
        epoch = map_update(self, kind, actions)
        published.append(self.osdmap)
        return epoch

    monkeypatch.setattr(MonitorStore, "_map_update", recording)
    c = MalacologyCluster.build(osds=4, mdss=0, seed=95,
                                pools={"data": {"size": 2, "pg_num": 4}})
    published.extend(mon.store.osdmap for mon in c.mons)
    payloads = {f"obj-{i}": bytes([i]) * 16 for i in range(16)}
    for oid, data in payloads.items():
        c.do(c.admin.rados_write_full("data", oid, data))
    flapper = c.osds[1]
    flapper.crash()
    c.run(15.0)
    flapper.restart()
    c.run(10.0)
    c.do(c.admin.mon_submit([{
        "op": "map_update", "kind": "osd",
        "actions": [{"action": "set_pool_pg_num", "name": "data",
                     "pg_num": 16}]}]))
    c.run(15.0)
    for oid, data in payloads.items():
        assert c.do(c.admin.rados_read("data", oid)) == data

    checked = set()
    for m in published:
        fresh = copy.deepcopy(m)
        assert fresh == m and not fresh.acting_memo
        assert m.up_osds() == fresh.up_osds()
        for (pool, pgid), acting in m.acting_memo.items():
            assert acting == acting_set(fresh, pool, pgid), (
                f"epoch {m.epoch}: {pool}/{pgid}")
            checked.add((m.epoch, m.pool(pool)["pg_num"],
                         tuple(m.up_osds())))
    # The memo was exercised on maps before and after the flap and the
    # split, not only on the boot map.
    assert {pg_num for _, pg_num, _ in checked} == {4, 16}
    assert len({up for _, _, up in checked}) >= 2


def test_a_filled_memo_is_invisible_to_eq_pickle_and_deepcopy():
    def build():
        return OSDMap(epoch=7,
                      osds={f"osd{i}": "down" if i == 2 else "up"
                            for i in range(6)},
                      pools={"p": {"size": 3, "pg_num": 16}})

    m, twin = build(), build()
    wire = pickle.dumps(m)
    assert m.up_osds() == ("osd0", "osd1", "osd3", "osd4", "osd5")
    sets = {pgid: acting_set(m, "p", pgid) for pgid in range(16)}
    assert len(m.acting_memo) == 16
    assert acting_set(m, "p", 3) is sets[3]  # answered from the memo
    assert m == twin and twin == m
    assert vars(m) == vars(twin)
    assert pickle.dumps(m) == wire
    clone = copy.deepcopy(m)
    assert clone == m and not clone.acting_memo
    restored = pickle.loads(wire)
    assert restored == m and not restored.acting_memo
    assert {pgid: acting_set(restored, "p", pgid)
            for pgid in range(16)} == sets
