"""Property tests: where values are copied, and where they are shared.

The rule under test (DESIGN.md, "Value boundaries"): a *value* — what
sits under one omap key, xattr key, mon-kv key, pool name or interface
name — is replaced, never edited in place.  So a value is deep-copied
in at the setter and out at the getter, and the *containers* of values
(``clone``, ``to_dict``/``from_dict``, ColdStore thaw/freeze, monitor
snapshot/restore) are only ever copied shallowly.  Three properties pin
the two halves:

* no op list — native ops over nested values, ``exec`` of every
  bundled class, succeeding or raising — changes an object it did not
  produce, and nothing it returned or was given aliases stored state;
* scribbling over anything a getter returned or a setter was given
  never reaches the object or the monitor store;
* shallow copies are independent at key level: adding, deleting or
  replacing a key on one side is invisible to the other.
"""

import copy

from hypothesis import example, given, settings, strategies as st

from repro.errors import MalacologyError
from repro.monitor.maps import map_from_dict
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


@given(st.dictionaries(keys, pool_cfgs, min_size=1, max_size=3),
       st.dictionaries(keys, values, max_size=3))
@example({"p": {"size": 2, "pg_num": 8}}, {})  # was test_maps_are_value_copies
@settings(max_examples=100, deadline=None)
def test_map_and_snapshot_copies_are_independent_at_key_level(pools, kv):
    mon = MonitorStore(["m0"])
    mon.apply_batch(
        [{"op": "map_update", "kind": "osd", "actions": [
            {"action": "set_osd_state", "name": "osd0", "state": "up"},
            {"action": "set_interface", "name": "cls", "version": 1,
             "source": "METHODS = {}"}]
            + [{"action": "create_pool", "name": n, **cfg}
               for n, cfg in pools.items()]},
         {"op": "map_update", "kind": "mds", "actions": [
             {"action": "set_lease_policy",
              "policy": {"mode": "quota", "quota": 10}}]}]
        + [{"op": "kv_put", "key": k, "value": v} for k, v in kv.items()])
    before = copy.deepcopy(mon.snapshot())

    for m in (mon.osdmap, mon.mdsmap):
        again = map_from_dict(m.to_dict())
        assert type(again) is type(m) and again.to_dict() == m.to_dict()
        for field in list(vars(again).values()) + list(m.to_dict().values()):
            if isinstance(field, dict):
                _edit_keys(field)
    assert mon.snapshot() == before

    other = MonitorStore(["m0"])
    other.restore(mon.snapshot())
    assert other.snapshot() == before
    _edit_keys(other.kv)
    _edit_keys(other.osdmap.pools)
    assert mon.snapshot() == before

    # The one action that changes part of a stored value replaces the
    # value, so a map dict taken earlier stays a stable snapshot.
    taken = mon.osdmap.to_dict()
    name = sorted(pools)[0]
    mon.apply_batch([{"op": "map_update", "kind": "osd", "actions": [
        {"action": "set_pool_pg_num", "name": name, "pg_num": 64}]}])
    assert mon.osdmap.pool(name)["pg_num"] == 64
    assert taken == before["osdmap"]
