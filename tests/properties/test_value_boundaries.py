"""Property tests: where values are copied, and where they are shared.

The rule under test (DESIGN.md, "Value boundaries"): a *value* — what
sits under one omap key, xattr key, mon-kv key, pool name or interface
name — is replaced, never edited in place.  So a value is deep-copied
in at the setter and out at the getter, and the *containers* of values
(``clone``, ``to_dict``/``from_dict``, ColdStore thaw/freeze) are only
ever copied shallowly.  A cluster map is itself a value: each
``map_update`` builds a successor, so published maps are shared, never
copied.  Four properties pin the rule:

* no op list — native ops over nested values, ``exec`` of every
  bundled class, succeeding or raising — changes an object it did not
  produce, and nothing it returned or was given aliases stored state;
* scribbling over anything a getter returned or a setter was given
  never reaches the object or the monitor store;
* shallow copies are independent at key level: adding, deleting or
  replacing a key on one side is invisible to the other;
* no map the monitor store published, and no snapshot it gave out,
  changes afterwards, whether later transactions apply or fail.
"""

import copy

from hypothesis import example, given, settings, strategies as st

from repro.errors import MalacologyError
from repro.monitor.store import MonitorStore
from repro.objclass.bundled import BUNDLED_CLASSES, register_all
from repro.objclass.registry import ClassRegistry
from repro.rados.objects import StoredObject
from repro.rados.ops import apply_ops
from repro.store import ColdStore

REGISTRY = ClassRegistry()
register_all(REGISTRY)

keys = st.sampled_from(["a", "b", "c"])
small = st.integers(0, 3)
#: Nested values: dicts of lists of dicts ... with scalar leaves.
values = st.recursive(
    st.integers(-3, 3) | st.text("xy", max_size=2),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(keys, inner, max_size=3)),
    max_leaves=6)

native_ops = st.one_of(
    st.fixed_dictionaries({"op": st.just("omap_set"), "key": keys,
                           "value": values}),
    st.fixed_dictionaries({"op": st.just("xattr_set"), "key": keys,
                           "value": values}),
    st.fixed_dictionaries({"op": st.just("omap_get"), "key": keys}),
    st.fixed_dictionaries({"op": st.just("xattr_get"), "key": keys}),
    st.fixed_dictionaries({"op": st.just("omap_del"), "key": keys}),
    st.just({"op": "omap_list"}),
    st.fixed_dictionaries({"op": st.just("append"),
                           "data": st.binary(max_size=4)}),
    st.sampled_from([{"op": "create"}, {"op": "assert_exists"},
                     {"op": "remove"}, {"op": "stat"}]),
)

#: Every argument name any bundled method reads, always all present
#: (a method ignores the ones it does not know), over domains small
#: enough that seal-then-write, lock-then-unlock and create-then-
#: rollback line up often.  What still does not fit raises a
#: MalacologyError, which is the other case the property wants.
exec_args = st.fixed_dictionaries({
    "epoch": st.integers(0, 2), "pos": small, "seq": small,
    "version": small, "from_seq": st.integers(-1, 2), "to_seq": small,
    "max": st.integers(1, 3), "name": keys, "owner": keys, "tag": keys,
    "key": keys, "mode": st.sampled_from(["exclusive", "shared"]),
    "duration": st.none() | st.integers(1, 2),
    "value": st.integers(-3, 3), "data": values, "payload": values,
    "keys": st.lists(keys, max_size=3),
    "set": st.dictionaries(keys, values, max_size=3),
    "delete": st.lists(keys, max_size=2),
    "expect": st.just({}) | small | st.dictionaries(keys, values, max_size=1),
    "to_cursor": st.just("") | st.just("~"),
    "records": st.lists(st.fixed_dictionaries(
        {"producer": keys, "pseq": small, "event": values}),
        min_size=1, max_size=3),
})
exec_ops = st.builds(
    lambda target, args: {"op": "exec", "cls": target[0],
                          "method": target[1], "args": args},
    st.sampled_from([(cls, method)
                     for cls, module in sorted(BUNDLED_CLASSES.items())
                     for method in sorted(module.METHODS)]),
    exec_args)

op_lists = st.lists(st.lists(native_ops | exec_ops, max_size=6),
                    min_size=1, max_size=6)


def scribble(thing):
    """Edit every mutable container reachable from ``thing`` in place."""
    if isinstance(thing, dict):
        for child in list(thing.values()):
            scribble(child)
        thing.clear()
        thing["scribbled"] = True
    elif isinstance(thing, list):
        for child in thing:
            scribble(child)
        thing.append("scribbled")
    elif isinstance(thing, tuple):
        for child in thing:
            scribble(child)


@given(op_lists)
@settings(max_examples=300, deadline=None)
def test_apply_ops_never_changes_an_object_it_did_not_produce(op_lists):
    obj = None
    produced = []  # (object, digest when apply_ops returned it)
    for ops in op_lists:
        try:
            results, new_obj, removed = apply_ops(
                obj, "o", ops, REGISTRY, epoch=1, now=1.0)
        except MalacologyError:
            results, new_obj, removed = [], obj, False
        else:
            if new_obj is not None:
                produced.append((new_obj, new_obj.digest()))
        # Neither what came back nor what went in aliases stored state.
        scribble(results)
        scribble(ops)
        for old, digest in produced:
            assert old.digest() == digest
        obj = None if removed else new_obj


@given(st.dictionaries(keys, values, min_size=1, max_size=3))
@example({"k": {"mutable": [1]}})  # was test_kv_values_are_isolated_copies
@settings(max_examples=200, deadline=None)
def test_setters_copy_in_and_getters_copy_out(items):
    model = copy.deepcopy(items)
    obj = StoredObject("o")
    mon = MonitorStore(["m0"])
    for key, value in items.items():
        obj.omap_set(key, value)
        obj.xattr_set(key, value)
    mon.apply_batch([{"op": "kv_put", "key": k, "value": v}
                     for k, v in items.items()])
    digest = obj.digest()
    scribble(items)  # what the setters were given
    for _ in range(2):  # second round: the first round's scribbles
        for key in model:
            scribble(obj.omap_get(key))
            scribble(obj.xattr_get(key))
            scribble(mon.kv_get(key))
        scribble(obj.omap_list())
        scribble(mon.kv_list())
        assert obj.digest() == digest
        assert obj.omap == model and obj.xattrs == model
        assert {k: e["value"] for k, e in mon.kv.items()} == model


def _edit_keys(container):
    """Add, replace and delete keys of one (shallowly copied) dict."""
    for key in list(container)[:1]:
        del container[key]
    for key in list(container)[:1]:
        container[key] = "replaced"
    container["added"] = "new"


@given(st.dictionaries(keys, values, max_size=3),
       st.dictionaries(keys, values, max_size=3))
@settings(max_examples=100, deadline=None)
def test_object_copies_are_independent_at_key_level(omap, xattrs):
    obj = StoredObject("o")
    obj.write(0, b"bytes")
    for key, value in omap.items():
        obj.omap_set(key, value)
    for key, value in xattrs.items():
        obj.xattr_set(key, value)
    digest = obj.digest()
    cold = ColdStore()
    cold.commit(obj)
    cold.flush(0.0)  # freeze: the cold record is now the only copy
    thawed = cold["o"]
    for other in (obj.clone(), StoredObject.from_dict(obj.to_dict()),
                  thawed):
        assert other.digest() == digest
        _edit_keys(other.omap)
        _edit_keys(other.xattrs)
        other.write(0, b"other")
        assert other.digest() != digest
        assert obj.digest() == digest
    wire = obj.to_dict()
    _edit_keys(wire["omap"])
    _edit_keys(wire["xattrs"])
    assert obj.digest() == digest
    assert cold["o"].digest() == digest  # thawed edits stayed out too
    _edit_keys(obj.omap)                 # ...and so do the original's
    assert cold["o"].digest() == digest


pool_cfgs = st.fixed_dictionaries({"size": st.integers(1, 3),
                                   "pg_num": st.sampled_from([8, 16])})
#: Map actions over small domains, so that a txn which fails part-way
#: (an existing pool, a missing pool, a bad mode, an unknown action)
#: comes up as often as one that applies.
osd_actions = st.one_of(
    st.fixed_dictionaries({"action": st.just("set_osd_state"),
                           "name": keys, "state": st.sampled_from(
                               ["up", "down"])}),
    st.builds(lambda name, cfg: {"action": "create_pool", "name": name,
                                 **cfg}, keys, pool_cfgs),
    st.fixed_dictionaries({"action": st.just("set_pool_pg_num"),
                           "name": keys, "pg_num": st.just(64)}),
    st.fixed_dictionaries({"action": st.just("set_interface"), "name": keys,
                           "version": small,
                           "source": st.just("METHODS = {}")}),
    st.fixed_dictionaries({"action": st.just("remove_interface"),
                           "name": keys}),
    st.just({"action": "warp"}),
)
mds_actions = st.one_of(
    st.fixed_dictionaries({"action": st.just("set_rank"), "rank": small,
                           "name": keys}),
    st.fixed_dictionaries({"action": st.just("remove_rank"),
                           "rank": small}),
    st.fixed_dictionaries({"action": st.just("set_state"), "name": keys,
                           "state": st.sampled_from(["up", "down"])}),
    st.fixed_dictionaries({"action": st.just("set_balancer_version"),
                           "version": keys}),
    st.fixed_dictionaries({"action": st.just("set_lease_policy"),
                           "policy": st.fixed_dictionaries(
                               {"mode": st.just("quota"),
                                "quota": small})}),
    st.fixed_dictionaries({"action": st.just("set_routing_mode"),
                           "mode": st.sampled_from(
                               ["client", "proxy", "bogus"])}),
    st.fixed_dictionaries({"action": st.just("set_subtree_auth"),
                           "path": st.sampled_from(["/", "/a", "/a/b"]),
                           "rank": small}),
    st.fixed_dictionaries({"action": st.just("remove_subtree_auth"),
                           "path": st.sampled_from(["/", "/a"])}),
)
mon_txns = st.one_of(
    st.builds(lambda acts: {"op": "map_update", "kind": "osd",
                            "actions": acts},
              st.lists(osd_actions, min_size=1, max_size=4)),
    st.builds(lambda acts: {"op": "map_update", "kind": "mds",
                            "actions": acts},
              st.lists(mds_actions, min_size=1, max_size=4)),
    st.fixed_dictionaries({"op": st.just("kv_put"), "key": keys,
                           "value": values}),
)


@given(st.lists(st.lists(mon_txns, min_size=1, max_size=4),
                min_size=1, max_size=5))
# A txn failing after a first action applied: osd.9 must not stay up.
@example([[{"op": "map_update", "kind": "osd", "actions": [
    {"action": "create_pool", "name": "p"}]}],
          [{"op": "map_update", "kind": "osd", "actions": [
              {"action": "set_osd_state", "name": "osd.9", "state": "up"},
              {"action": "create_pool", "name": "p"}]}]])
@settings(max_examples=150, deadline=None)
def test_a_published_map_is_never_edited(batches):
    """Whatever later batches do, applying or failing, every map the
    store published and every snapshot it gave out keep their content:
    one epoch names one map, shared by the wire, caches and snapshots."""
    mon = MonitorStore(["m0"])
    maps, snaps = [], []  # (object, deep copy of its content when taken)
    for batch in batches:
        for m in (mon.osdmap, mon.mdsmap):
            maps.append((m, copy.deepcopy(vars(m))))
        snap = mon.snapshot()
        snaps.append((snap, copy.deepcopy(snap)))
        mon.apply_batch(batch)
        for m, content in maps:
            assert vars(m) == content, f"{m!r} was edited after publishing"
        for snap, content in snaps:
            assert snap == content

    # A restored store shares the maps and then publishes its own.
    other = MonitorStore(["m0"])
    first, content = snaps[0]
    other.restore(first)
    for batch in batches:
        other.apply_batch(batch)
    assert first == content
    assert other.snapshot() == mon.snapshot()
