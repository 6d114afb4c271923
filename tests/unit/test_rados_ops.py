"""Unit tests: the transactional op-list engine (repro.rados.ops)."""

import pytest

from repro.errors import AlreadyExists, InvalidArgument, NotFound
from repro.objclass.bundled import register_all
from repro.objclass.registry import ClassRegistry
from repro.rados.objects import StoredObject
from repro.rados.ops import apply_ops


@pytest.fixture(scope="module")
def registry():
    reg = ClassRegistry()
    register_all(reg)
    return reg


def test_apply_ops_returns_per_op_results(registry):
    results, obj, removed = apply_ops(
        None, "o",
        [
            {"op": "create"},
            {"op": "append", "data": b"abc"},
            {"op": "append", "data": b"de"},
            {"op": "stat"},
            {"op": "read", "offset": 1, "length": 3},
        ],
        registry)
    assert results[0] is None
    assert results[1] == 0 and results[2] == 3
    assert results[3]["size"] == 5
    assert results[4] == b"bcd"
    assert obj is not None and not removed


def test_apply_ops_failure_leaves_input_untouched(registry):
    obj = StoredObject("o")
    obj.write(0, b"original")
    with pytest.raises(NotFound):
        apply_ops(obj, "o",
                  [{"op": "write_full", "data": b"clobbered"},
                   {"op": "omap_get", "key": "missing"}],
                  registry)
    assert obj.read() == b"original"


def test_apply_ops_exec_composes_with_native_ops(registry):
    results, obj, _ = apply_ops(
        None, "o",
        [
            {"op": "write_full", "data": b"matrix-bytes"},
            {"op": "exec", "cls": "numops", "method": "add",
             "args": {"key": "row-count", "value": 3}},
            {"op": "omap_get", "key": "row-count"},
        ],
        registry)
    assert results[1] == {"value": 3}
    assert results[2] == 3
    assert obj.read() == b"matrix-bytes"


def test_apply_ops_exec_failure_aborts_native_ops_too(registry):
    from repro.errors import StaleEpoch

    obj = StoredObject("o")
    obj.omap_set("k", 1)
    with pytest.raises(StaleEpoch):
        apply_ops(obj, "o",
                  [{"op": "omap_set", "key": "k", "value": 2},
                   {"op": "exec", "cls": "version", "method": "check",
                    "args": {"expect": 42}}],
                  registry)
    assert obj.omap_get("k") == 1


def test_apply_ops_remove_and_recreate(registry):
    obj = StoredObject("o")
    obj.write(0, b"x")
    results, new_obj, removed = apply_ops(
        obj, "o", [{"op": "remove"}], registry)
    assert removed and new_obj is None
    # Remove-then-create in one transaction resurrects fresh state.
    results, new_obj, removed = apply_ops(
        obj, "o", [{"op": "remove"}, {"op": "create"}, {"op": "stat"}],
        registry)
    assert not removed
    assert results[2]["size"] == 0


def test_apply_ops_assert_exists(registry):
    with pytest.raises(NotFound):
        apply_ops(None, "o", [{"op": "assert_exists"}], registry)
    obj = StoredObject("o")
    apply_ops(obj, "o", [{"op": "assert_exists"}], registry)


def test_apply_ops_create_exclusive(registry):
    obj = StoredObject("o")
    with pytest.raises(AlreadyExists):
        apply_ops(obj, "o", [{"op": "create"}], registry)
    apply_ops(obj, "o", [{"op": "create", "exclusive": False}], registry)


def test_apply_ops_unknown_op_rejected(registry):
    with pytest.raises(InvalidArgument):
        apply_ops(None, "o", [{"op": "levitate"}], registry)


def test_apply_ops_epoch_reaches_class_context(registry):
    results, obj, _ = apply_ops(
        None, "o",
        [{"op": "exec", "cls": "zlog", "method": "write",
          "args": {"epoch": 5, "pos": 0, "data": "d"}}],
        registry, epoch=5)
    # Seal at 6, then epoch-5 context write must bounce.
    from repro.errors import StaleEpoch

    _, obj, _ = apply_ops(obj, "o",
                          [{"op": "exec", "cls": "zlog",
                            "method": "seal", "args": {"epoch": 6}}],
                          registry)
    with pytest.raises(StaleEpoch):
        apply_ops(obj, "o",
                  [{"op": "exec", "cls": "zlog", "method": "write",
                    "args": {"epoch": 5, "pos": 1, "data": "d"}}],
                  registry, epoch=5)
