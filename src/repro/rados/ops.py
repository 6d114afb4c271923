"""Object operation descriptors and their transactional application.

A client request against one object carries an ordered *op list*; the
OSD applies the whole list atomically — if any op raises, nothing
lands.  This is the substrate for Ceph's semantically rich interfaces
("native interfaces may be transactionally composed", section 4.2):
an ``exec`` op invokes an object-class method in the middle of the
same transaction.

Application is pure with respect to daemon state: it takes the current
object (or None), returns per-op results plus the new object state, and
the OSD commits.  That purity is what lets replicas apply shipped state
instead of re-executing, and lets tests drive op lists directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidArgument, NotFound
from repro.objclass.context import MethodContext
from repro.objclass.registry import ClassRegistry
from repro.rados.objects import StoredObject


def apply_ops(
    obj: Optional[StoredObject],
    oid: str,
    ops: List[Dict[str, Any]],
    registry: ClassRegistry,
    epoch: Optional[int] = None,
    now: float = 0.0,
) -> Tuple[List[Any], Optional[StoredObject], bool]:
    """Apply ``ops`` transactionally.

    Returns ``(results, new_object_state, removed)``.  Raises the first
    failing op's error, in which case nothing lands: the input ``obj``
    is never mutated.  The context works on a clone with private key
    containers whose values are shared with ``obj``; setters store
    copies and getters hand out copies, so no op reaches a shared value.
    """
    ctx = MethodContext(obj, oid, epoch=epoch, now=now)  # ctx clones
    results: List[Any] = []
    for op in ops:
        results.append(_apply_one(ctx, op, registry))
    new_obj, removed = ctx.outcome()
    return results, new_obj, removed


def _apply_one(ctx: MethodContext, op: Dict[str, Any],
               registry: ClassRegistry) -> Any:
    kind = op.get("op")
    if kind == "create":
        ctx.create(exclusive=op.get("exclusive", True))
        return None
    if kind == "assert_exists":
        if not ctx.exists:
            raise NotFound(f"object {ctx.oid!r} does not exist")
        return None
    if kind == "read":
        return ctx.read(op.get("offset", 0), op.get("length"))
    if kind == "write":
        ctx.write(op["offset"], op["data"])
        return None
    if kind == "write_full":
        ctx.write_full(op["data"])
        return None
    if kind == "append":
        return ctx.append(op["data"])
    if kind == "truncate":
        ctx.truncate(op["size"])
        return None
    if kind == "stat":
        return ctx.stat()
    if kind == "remove":
        ctx.remove()
        return None
    if kind == "omap_get":
        return ctx.omap_get(op["key"])
    if kind == "omap_set":
        ctx.omap_set(op["key"], op["value"])
        return None
    if kind == "omap_del":
        ctx.omap_del(op["key"])
        return None
    if kind == "omap_list":
        return ctx.omap_list(start=op.get("start", ""),
                             max_items=op.get("max"),
                             prefix=op.get("prefix", ""))
    if kind == "xattr_get":
        return ctx.xattr_get(op["key"], op.get("default"))
    if kind == "xattr_set":
        ctx.xattr_set(op["key"], op["value"])
        return None
    if kind == "exec":
        return registry.call(op["cls"], op["method"], ctx,
                             op.get("args", {}))
    raise InvalidArgument(f"unknown object op {kind!r}")
