"""The stored object: bytestream + sorted key-value omap + xattrs.

This is RADOS's data model (paper section 4.2): every object offers a
byte stream, a sorted key-value database (the "omap"), and extended
attributes, all mutable atomically within one object operation.  Object
classes compose these native interfaces.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidArgument

#: Guardrail: a simulated object refusing absurd writes keeps runaway
#: benchmarks from eating the host's memory.
MAX_OBJECT_SIZE = 64 * 1024 * 1024


class StoredObject:
    """One object's full state at one version.

    ``version`` counts mutations (like Ceph's per-object version) and
    is what scrub compares across replicas.  An object handed to a store
    is never edited again (a mutation works on a ``clone``), so the
    replicas of one write share the object the primary committed.
    """

    __slots__ = ("oid", "data", "omap", "xattrs", "version")

    def __init__(self, oid: str):
        self.oid = oid
        self.data = bytearray()
        self.omap: Dict[str, Any] = {}
        self.xattrs: Dict[str, Any] = {}
        self.version = 0

    # ------------------------------------------------------------------
    # Bytestream
    # ------------------------------------------------------------------
    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        if offset < 0:
            raise InvalidArgument("negative read offset")
        if length is None:
            return bytes(self.data[offset:])
        if length < 0:
            raise InvalidArgument("negative read length")
        return bytes(self.data[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0:
            raise InvalidArgument("negative write offset")
        end = offset + len(data)
        if end > MAX_OBJECT_SIZE:
            raise InvalidArgument(f"object would exceed {MAX_OBJECT_SIZE}B")
        if len(self.data) < end:
            self.data.extend(b"\x00" * (end - len(self.data)))
        self.data[offset:end] = data
        self.version += 1

    def append(self, data: bytes) -> int:
        """Append; returns the offset the data landed at."""
        offset = len(self.data)
        self.write(offset, data)
        return offset

    def truncate(self, size: int) -> None:
        if size < 0:
            raise InvalidArgument("negative truncate size")
        if size < len(self.data):
            del self.data[size:]
        else:
            self.data.extend(b"\x00" * (size - len(self.data)))
        self.version += 1

    @property
    def size(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Omap (sorted key-value database)
    # ------------------------------------------------------------------
    def omap_get(self, key: str) -> Any:
        return copy.deepcopy(self.omap[key])

    def omap_set(self, key: str, value: Any) -> None:
        self.omap[key] = copy.deepcopy(value)
        self.version += 1

    def omap_del(self, key: str) -> None:
        if key in self.omap:
            del self.omap[key]
            self.version += 1

    def omap_list(self, start: str = "", max_items: Optional[int] = None,
                  prefix: str = "") -> List[Tuple[str, Any]]:
        """Sorted scan from ``start`` (exclusive), optional prefix filter."""
        keys = sorted(k for k in self.omap
                      if k > start and k.startswith(prefix))
        if max_items is not None:
            keys = keys[:max_items]
        return [(k, copy.deepcopy(self.omap[k])) for k in keys]

    # ------------------------------------------------------------------
    # Xattrs
    # ------------------------------------------------------------------
    def xattr_get(self, key: str) -> Any:
        return copy.deepcopy(self.xattrs[key])

    def xattr_set(self, key: str, value: Any) -> None:
        self.xattrs[key] = copy.deepcopy(value)
        self.version += 1

    # ------------------------------------------------------------------
    # Whole-object operations
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Content fingerprint used by scrub to compare replicas."""
        h = hashlib.sha256()
        h.update(bytes(self.data))
        for k in sorted(self.omap):
            h.update(repr((k, self.omap[k])).encode())
        for k in sorted(self.xattrs):
            h.update(repr((k, self.xattrs[k])).encode())
        return h.hexdigest()

    def clone(self) -> "StoredObject":
        """Private bytestream and key containers, shared values."""
        other = StoredObject(self.oid)
        other.data = bytearray(self.data)
        other.omap = dict(self.omap)
        other.xattrs = dict(self.xattrs)
        other.version = self.version
        return other

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form that shares values with the object, so it is
        read-only for every holder.  Nothing in ``repro`` calls it: the
        OSDs hand committed objects to each other by reference.  It stays
        for the ``rados.obj_to_dict_1k_ns`` / ``obj_from_dict_1k_ns`` and
        ``msg.call_rtt_state_ns`` micro-benchmark rows that measure it."""
        return {
            "oid": self.oid,
            "data": bytes(self.data),
            "omap": dict(self.omap),
            "xattrs": dict(self.xattrs),
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "StoredObject":
        obj = cls(d["oid"])
        obj.data = bytearray(d["data"])
        obj.omap = dict(d["omap"])
        obj.xattrs = dict(d["xattrs"])
        obj.version = d["version"]
        return obj

    def __repr__(self) -> str:
        return (f"StoredObject({self.oid!r}, {self.size}B, "
                f"{len(self.omap)} omap keys, v{self.version})")
