"""Unit tests for object classes: context, loader, registry, bundled."""

import pytest

from repro.errors import (
    AlreadyExists,
    NotFound,
    NotPermitted,
    PolicyError,
    ReadOnly,
    StaleEpoch,
)
from repro.mantle import MantlePolicy
from repro.objclass import ClassRegistry, MethodContext, compile_class_source
from repro.objclass import loader
from repro.objclass.bundled import BUNDLED_CLASSES, register_all
from repro.rados.objects import StoredObject


def make_registry():
    reg = ClassRegistry()
    register_all(reg)
    return reg


def ctx_for(obj=None, oid="obj", epoch=None, now=0.0):
    return MethodContext(obj, oid, epoch=epoch, now=now)


# ----------------------------------------------------------------------
# MethodContext
# ----------------------------------------------------------------------
def test_context_create_exclusive_fails_on_existing():
    ctx = ctx_for(StoredObject("obj"))
    with pytest.raises(AlreadyExists):
        ctx.create(exclusive=True)
    ctx.create(exclusive=False)  # fine


def test_context_write_implicitly_creates():
    ctx = ctx_for(None)
    ctx.write(0, b"hi")
    obj, removed = ctx.outcome()
    assert obj is not None and not removed
    assert obj.read() == b"hi"


def test_context_mutations_do_not_touch_input_object():
    original = StoredObject("obj")
    original.write(0, b"old")
    base_version = original.version
    ctx = ctx_for(original)
    ctx.write_full(b"new")
    assert original.read() == b"old"
    assert original.version == base_version


def test_context_remove_then_outcome():
    ctx = ctx_for(StoredObject("obj"))
    ctx.remove()
    obj, removed = ctx.outcome()
    assert removed
    assert not ctx.exists


def test_context_read_missing_object_raises():
    ctx = ctx_for(None)
    with pytest.raises(NotFound):
        ctx.read()


def test_context_omap_roundtrip_and_list_prefix():
    ctx = ctx_for(None)
    ctx.omap_set("a.1", 1)
    ctx.omap_set("a.2", 2)
    ctx.omap_set("b.1", 3)
    assert ctx.omap_get("a.1") == 1
    assert [k for k, _ in ctx.omap_list(prefix="a.")] == ["a.1", "a.2"]
    assert [k for k, _ in ctx.omap_list(start="a.1", prefix="a.")] == ["a.2"]


# ----------------------------------------------------------------------
# Loader / sandbox
# ----------------------------------------------------------------------
GOOD_SOURCE = """
def bump(ctx, args):
    n = ctx.xattr_get("n", 0) + args.get("by", 1)
    ctx.xattr_set("n", n)
    return {"n": n}

METHODS = {"bump": bump}
"""


def test_loader_compiles_and_methods_run():
    methods = compile_class_source("counter", GOOD_SOURCE)
    ctx = ctx_for(None)
    assert methods["bump"](ctx, {"by": 5}) == {"n": 5}
    assert methods["bump"](ctx, {}) == {"n": 6}


def test_loader_rejects_syntax_errors():
    with pytest.raises(PolicyError):
        compile_class_source("bad", "def broken(:\n")


def test_loader_requires_methods_dict():
    with pytest.raises(PolicyError):
        compile_class_source("bad", "x = 1\n")


def test_loader_sandbox_blocks_imports_and_open():
    with pytest.raises(PolicyError):
        compile_class_source("bad", "import os\nMETHODS={'x': len}\n")
    src = """
def f(ctx, args):
    return open("/etc/passwd").read()

METHODS = {"f": f}
"""
    methods = compile_class_source("escape", src)
    reg = ClassRegistry()
    reg.register_bundled("escape", methods)
    with pytest.raises(PolicyError):
        reg.call("escape", "f", ctx_for(None), {})


COUNTER_SOURCE = """
COUNT = 0

def bump(ctx, args):
    global COUNT
    COUNT += args.get("by", 1)
    return {"count": COUNT}

METHODS = {"bump": bump}
"""


def test_one_source_gives_each_registry_its_own_namespace():
    a, b = ClassRegistry(), ClassRegistry()
    a.install_dynamic("c", 1, COUNTER_SOURCE)
    b.install_dynamic("c", 1, COUNTER_SOURCE)
    assert a.call("c", "bump", ctx_for(None), {"by": 5}) == {"count": 5}
    assert a.call("c", "bump", ctx_for(None), {}) == {"count": 6}
    # Rebinding COUNT in a's module globals leaves b's untouched.
    assert b.call("c", "bump", ctx_for(None), {}) == {"count": 1}
    first = compile_class_source("c", COUNTER_SOURCE)
    second = compile_class_source("c", COUNTER_SOURCE)
    assert first is not second
    assert first["bump"] is not second["bump"]
    assert first["bump"].__globals__ is not second["bump"].__globals__
    # What the installs share is the immutable code object.
    assert first["bump"].__code__ is second["bump"].__code__


def test_a_syntax_error_fails_every_install(monkeypatch):
    compiled = []

    def counting(source, *args, **kwargs):
        compiled.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(loader, "compile", counting, raising=False)
    broken = "def broken(:\n    return 'never cached'\n"
    for reg in (ClassRegistry(), ClassRegistry()):
        with pytest.raises(PolicyError, match="failed to compile"):
            reg.install_dynamic("c", 1, broken)
        assert not reg.has("c")
    assert compiled == [broken, broken]


def test_a_mantle_policy_keeps_only_state_across_decisions():
    source = """
seen = []

def when():
    seen.append(whoami)
    state["ticks"] = state.get("ticks", 0) + 1
    state["seen"] = len(seen)
    return state["ticks"] == 2
"""
    policy = MantlePolicy("tick", source)
    mds = [{"load": 1.0, "cpu": 0.0, "req_rate": 0.0, "inodes": 0}]
    state = {}
    # ``state`` is edited in place and persists; ``seen`` is module
    # state, rebuilt fresh for every decision.
    assert policy.decide(mds, 0, state) == (False, [0.0], None)
    assert state == {"ticks": 1, "seen": 1}
    assert policy.decide(mds, 0, state) == (True, [0.0], None)
    assert state == {"ticks": 2, "seen": 1}


def test_the_compile_cache_is_bounded():
    assert loader._compiled.cache_info().maxsize == 256


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_versioned_install_and_stale_rejection():
    reg = ClassRegistry()
    assert reg.install_dynamic("c", 2, GOOD_SOURCE)
    assert not reg.install_dynamic("c", 1, GOOD_SOURCE)  # stale
    assert not reg.install_dynamic("c", 2, GOOD_SOURCE)  # same
    assert reg.install_dynamic("c", 3, GOOD_SOURCE)
    assert reg.version_of("c") == 3


def test_registry_broken_upgrade_keeps_old_version():
    reg = ClassRegistry()
    reg.install_dynamic("c", 1, GOOD_SOURCE)
    with pytest.raises(PolicyError):
        reg.install_dynamic("c", 2, "def broken(:\n")
    assert reg.version_of("c") == 1
    ctx = ctx_for(None)
    assert reg.call("c", "bump", ctx, {})["n"] == 1


def test_registry_cannot_shadow_bundled():
    reg = make_registry()
    with pytest.raises(PolicyError):
        reg.install_dynamic("zlog", 1, GOOD_SOURCE)


def test_registry_runtime_fault_becomes_policy_error():
    src = """
def boom(ctx, args):
    return 1 / 0

METHODS = {"boom": boom}
"""
    reg = ClassRegistry()
    reg.install_dynamic("b", 1, src)
    with pytest.raises(PolicyError):
        reg.call("b", "boom", ctx_for(None), {})


def test_registry_unknown_class_and_method():
    reg = make_registry()
    with pytest.raises(NotFound):
        reg.call("ghost", "m", ctx_for(None), {})
    with pytest.raises(NotFound):
        reg.call("zlog", "ghost", ctx_for(None), {})


def test_registry_catalog_lists_bundled_categories():
    reg = make_registry()
    catalog = {name: cat for name, cat, _ in reg.catalog()}
    assert catalog["zlog"] == "logging"
    assert catalog["lock"] == "locking"
    assert set(catalog) == set(BUNDLED_CLASSES)


# ----------------------------------------------------------------------
# cls_zlog: the CORFU storage interface
# ----------------------------------------------------------------------
def zcall(reg, ctx, method, **args):
    return reg.call("zlog", method, ctx, args)


def test_zlog_write_once_and_read():
    reg = make_registry()
    ctx = ctx_for(None, epoch=1)
    zcall(reg, ctx, "write", epoch=1, pos=0, data="entry0")
    assert zcall(reg, ctx, "read", epoch=1, pos=0) == {
        "state": "written", "data": "entry0"}
    with pytest.raises(ReadOnly):
        zcall(reg, ctx, "write", epoch=1, pos=0, data="overwrite")


def test_zlog_read_unwritten_raises_enoent():
    reg = make_registry()
    ctx = ctx_for(None)
    with pytest.raises(NotFound):
        zcall(reg, ctx, "read", epoch=1, pos=5)


def test_zlog_seal_returns_max_pos_and_fences_old_epoch():
    reg = make_registry()
    ctx = ctx_for(None)
    zcall(reg, ctx, "write", epoch=1, pos=0, data="a")
    zcall(reg, ctx, "write", epoch=1, pos=7, data="b")
    assert zcall(reg, ctx, "seal", epoch=2) == {"max_pos": 7}
    with pytest.raises(StaleEpoch):
        zcall(reg, ctx, "write", epoch=1, pos=8, data="stale")
    zcall(reg, ctx, "write", epoch=2, pos=8, data="fresh")


def test_zlog_seal_is_monotonic():
    reg = make_registry()
    ctx = ctx_for(None)
    zcall(reg, ctx, "seal", epoch=3)
    with pytest.raises(StaleEpoch):
        zcall(reg, ctx, "seal", epoch=3)
    with pytest.raises(StaleEpoch):
        zcall(reg, ctx, "seal", epoch=2)


def test_zlog_fill_is_idempotent_and_never_clobbers():
    reg = make_registry()
    ctx = ctx_for(None)
    zcall(reg, ctx, "fill", epoch=1, pos=3)
    zcall(reg, ctx, "fill", epoch=1, pos=3)
    assert zcall(reg, ctx, "read", epoch=1, pos=3) == {"state": "filled"}
    zcall(reg, ctx, "write", epoch=1, pos=4, data="real")
    with pytest.raises(ReadOnly):
        zcall(reg, ctx, "fill", epoch=1, pos=4)


def test_zlog_trim_and_max_position():
    reg = make_registry()
    ctx = ctx_for(None)
    zcall(reg, ctx, "write", epoch=1, pos=0, data="a")
    zcall(reg, ctx, "trim", epoch=1, pos=0)
    assert zcall(reg, ctx, "read", epoch=1, pos=0) == {"state": "trimmed"}
    assert zcall(reg, ctx, "max_position", epoch=1) == {"max_pos": 0}


# ----------------------------------------------------------------------
# cls_lock
# ----------------------------------------------------------------------
def test_lock_exclusive_blocks_and_unlock_releases():
    reg = make_registry()
    ctx = ctx_for(None, now=10.0)
    reg.call("lock", "lock", ctx, {"owner": "a"})
    with pytest.raises(AlreadyExists):
        reg.call("lock", "lock", ctx, {"owner": "b"})
    reg.call("lock", "unlock", ctx, {"owner": "a"})
    reg.call("lock", "lock", ctx, {"owner": "b"})


def test_lock_shared_allows_multiple_holders():
    reg = make_registry()
    ctx = ctx_for(None)
    reg.call("lock", "lock", ctx, {"owner": "a", "mode": "shared"})
    reg.call("lock", "lock", ctx, {"owner": "b", "mode": "shared"})
    info = reg.call("lock", "info", ctx, {})
    assert info["holders"] == ["a", "b"]


def test_lock_lease_expiry_and_break():
    reg = make_registry()
    ctx = ctx_for(None, now=0.0)
    reg.call("lock", "lock", ctx, {"owner": "a", "duration": 5.0})
    # Before expiry: cannot break.
    with pytest.raises(NotPermitted):
        reg.call("lock", "break_lock", ctx, {"owner": "a"})
    obj, _ = ctx.outcome()
    late = MethodContext(obj, "obj", now=6.0)
    reg.call("lock", "break_lock", late, {"owner": "a"})
    reg.call("lock", "lock", late, {"owner": "b"})


# ----------------------------------------------------------------------
# cls_numops / cls_kvstore / cls_version / cls_refcount / cls_log
# ----------------------------------------------------------------------
def test_numops_add_sub_get():
    reg = make_registry()
    ctx = ctx_for(None)
    assert reg.call("numops", "add", ctx, {"key": "x", "value": 5})[
        "value"] == 5
    assert reg.call("numops", "sub", ctx, {"key": "x", "value": 2})[
        "value"] == 3
    assert reg.call("numops", "get", ctx, {"key": "x"})["value"] == 3


def test_kvstore_preconditions_abort_batch():
    reg = make_registry()
    ctx = ctx_for(None)
    reg.call("kvstore", "put", ctx, {"set": {"a": 1}})
    with pytest.raises(StaleEpoch):
        reg.call("kvstore", "put", ctx,
                 {"expect": {"a": 999}, "set": {"a": 2, "b": 3}})
    # Nothing from the failed batch landed.
    values = reg.call("kvstore", "get", ctx, {"keys": ["a", "b"]})["values"]
    assert values == {"a": 1}


def test_version_check_guards_composition():
    reg = make_registry()
    ctx = ctx_for(None)
    reg.call("version", "bump", ctx, {})
    reg.call("version", "check", ctx, {"expect": 1})
    with pytest.raises(StaleEpoch):
        reg.call("version", "check", ctx, {"expect": 0})


def test_refcount_removes_object_at_zero():
    reg = make_registry()
    ctx = ctx_for(None)
    reg.call("refcount", "take", ctx, {"tag": "t1"})
    reg.call("refcount", "take", ctx, {"tag": "t2"})
    out = reg.call("refcount", "put", ctx, {"tag": "t1"})
    assert out == {"count": 1, "removed": False}
    out = reg.call("refcount", "put", ctx, {"tag": "t2"})
    assert out == {"count": 0, "removed": True}
    assert not ctx.exists


def test_cls_log_append_list_trim():
    reg = make_registry()
    ctx = ctx_for(None, now=1.0)
    for i in range(5):
        reg.call("log", "add", ctx, {"payload": f"e{i}", "ts": float(i)})
    out = reg.call("log", "list", ctx, {"max": 3})
    assert [e["payload"] for e in out["entries"]] == ["e0", "e1", "e2"]
    assert out["truncated"]
    reg.call("log", "trim", ctx, {"to_cursor": out["cursor"]})
    out2 = reg.call("log", "list", ctx, {"max": 10})
    assert [e["payload"] for e in out2["entries"]] == ["e3", "e4"]
