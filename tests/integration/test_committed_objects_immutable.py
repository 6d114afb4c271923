"""Integration: an object a store was handed never changes afterwards.

``StoredObject.clone`` / ``to_dict`` / ``from_dict`` copy the key
containers and share the values under them, so the primary's committed
object, the clone an op list works on, the replication payload and the
replica's object can all hold the *same* value.  That is safe only if
nobody edits a value in place.  ``watch_committed_objects`` pins it end
to end: every object any store on any OSD receives is digested on
arrival and again at the end of the run, superseded versions included.

Run over the observer-transparency workload (monitors, MDS, OSDs, a
sequencer and ZLog) and over the one chaos scenario that rewrites
objects under store faults; the last test shows the oracle bites.
"""

import pytest

from repro.chaos import run_case
from repro.errors import NotFound
from repro.objclass import ClassRegistry
from repro.rados.objects import StoredObject
from repro.rados.ops import apply_ops
from repro.store import MemStore
from repro.testing import watch_committed_objects
from tests.integration.test_observer_transparency import _run


def test_transparency_workload_never_edits_a_committed_object():
    with watch_committed_objects() as changed:
        _run(())
        assert changed() == []


def test_torn_store_chaos_never_edits_a_committed_object():
    with watch_committed_objects() as changed:
        verdict = run_case("torn-store", 0)
        assert verdict.ok, verdict.to_dict()
        assert verdict.stats["engine"]["store_faults"] > 0
        assert changed() == []


def _bump_in_place(ctx, args):
    entry = ctx.omap_get("k")
    entry["n"] += 1  # edits whatever the getter handed out


def test_oracle_catches_a_getter_that_leaks_the_live_value(monkeypatch):
    registry = ClassRegistry()
    registry.register_bundled("leak", {"bump": _bump_in_place})
    store = MemStore()
    ops = [{"op": "exec", "cls": "leak", "method": "bump"},
           {"op": "omap_get", "key": "missing"}]  # fails the op list
    with watch_committed_objects() as changed:
        _, obj, _ = apply_ops(None, "o", [
            {"op": "omap_set", "key": "k", "value": {"n": 0}}], registry)
        store.commit(obj)
        with pytest.raises(NotFound):
            apply_ops(store["o"], "o", ops, registry)
        assert changed() == []  # the getter's copy-out absorbed the edit

        # Sabotage: the pre-PR getter, which returned the stored value.
        monkeypatch.setattr(StoredObject, "omap_get",
                            lambda self, key: self.omap[key])
        with pytest.raises(NotFound):
            apply_ops(store["o"], "o", ops, registry)
        assert len(changed()) == 1  # nothing committed, yet "o" moved
        assert store["o"].omap["k"] == {"n": 1}
