"""The method context: native interfaces exposed to object classes.

A class method receives a :class:`MethodContext` bound to the object it
was invoked on.  All mutations go through the context, which operates on
a clone of the object (private containers, values shared: setters store
copies, getters return copies); the OSD commits the clone back only if
the whole operation (the full op list, including any class method)
succeeds — giving the transactional all-or-nothing semantics the paper
highlights ("native interfaces may be transactionally composed along
with application-specific logic", section 4.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import AlreadyExists, NotFound

if TYPE_CHECKING:  # import cycle: rados.ops imports this module
    from repro.rados.objects import StoredObject


def _new_object(oid: str) -> "StoredObject":
    from repro.rados.objects import StoredObject

    return StoredObject(oid)


class MethodContext:
    """Sandbox-facing handle on one object during one operation.

    The context also carries request metadata classes need:
    ``epoch`` — the client-supplied epoch tag (CORFU-style fencing);
    ``now`` — simulated time (read-only; classes must stay
    deterministic given the same object state and args).
    """

    def __init__(self, obj: Optional["StoredObject"], oid: str,
                 epoch: Optional[int] = None, now: float = 0.0):
        #: None means the object does not exist (yet).  The context
        #: always works on a clone (private containers, shared values):
        #: the caller's object is untouched until it commits the outcome.
        self._obj = obj.clone() if obj is not None else None
        self.oid = oid
        self.epoch = epoch
        self.now = now
        self._removed = False

    # ------------------------------------------------------------------
    # Existence
    # ------------------------------------------------------------------
    @property
    def exists(self) -> bool:
        return self._obj is not None and not self._removed

    def create(self, exclusive: bool = True) -> None:
        if self.exists:
            if exclusive:
                raise AlreadyExists(f"object {self.oid!r} already exists")
            return
        self._obj = _new_object(self.oid)
        self._removed = False

    def remove(self) -> None:
        self._require()
        self._removed = True

    def _require(self) -> "StoredObject":
        if not self.exists:
            raise NotFound(f"object {self.oid!r} does not exist")
        assert self._obj is not None
        return self._obj

    def _ensure(self) -> "StoredObject":
        """Writes implicitly create the object, as RADOS writes do."""
        if not self.exists:
            self._obj = _new_object(self.oid)
            self._removed = False
        assert self._obj is not None
        return self._obj

    # ------------------------------------------------------------------
    # Bytestream
    # ------------------------------------------------------------------
    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        return self._require().read(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        self._ensure().write(offset, data)

    def write_full(self, data: bytes) -> None:
        obj = self._ensure()
        obj.truncate(0)
        obj.write(0, data)

    def append(self, data: bytes) -> int:
        return self._ensure().append(data)

    def truncate(self, size: int) -> None:
        self._ensure().truncate(size)

    def stat(self) -> Dict[str, int]:
        obj = self._require()
        return {"size": obj.size, "version": obj.version,
                "omap_keys": len(obj.omap)}

    # ------------------------------------------------------------------
    # Omap
    # ------------------------------------------------------------------
    def omap_get(self, key: str) -> Any:
        obj = self._require()
        if key not in obj.omap:
            raise NotFound(f"omap key {key!r} not in {self.oid!r}")
        return obj.omap_get(key)

    def omap_has(self, key: str) -> bool:
        return self.exists and key in self._require().omap

    def omap_set(self, key: str, value: Any) -> None:
        self._ensure().omap_set(key, value)

    def omap_del(self, key: str) -> None:
        self._require().omap_del(key)

    def omap_list(self, start: str = "", max_items: Optional[int] = None,
                  prefix: str = "") -> List[Tuple[str, Any]]:
        if not self.exists:
            return []
        return self._require().omap_list(start, max_items, prefix)

    # ------------------------------------------------------------------
    # Xattrs
    # ------------------------------------------------------------------
    def xattr_get(self, key: str, default: Any = None) -> Any:
        if not self.exists or key not in self._require().xattrs:
            return default
        return self._require().xattr_get(key)

    def xattr_set(self, key: str, value: Any) -> None:
        self._ensure().xattr_set(key, value)

    # ------------------------------------------------------------------
    # Commit protocol (OSD-side)
    # ------------------------------------------------------------------
    def outcome(self) -> Tuple[Optional["StoredObject"], bool]:
        """(object state to commit, removed?) — consumed by the OSD."""
        if self._removed:
            return None, True
        return self._obj, False
