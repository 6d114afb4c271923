"""ColdStore: locally erasure-coded capacity tier.

Writes land in a cheap staging area (plain object references, like
MemStore); the OSD's jitter-free store ticker then flushes the whole
staged batch in **one flush**, encoding each object with
``ErasureCodec.encode`` and replacing its bytestream with k+m shards.  Reads of flushed
objects pay a reconstruction cost (decode from the k data shards);
staged objects are still hot and cheap.

This is the "cold data" profile from the CFS asymmetry argument:
capacity-efficient, write-friendly (staging absorbs bursts), read-dear.
Omap and xattrs are small metadata and stay verbatim alongside the
shards; only the bytestream is coded.

Determinism: staging flushes in sorted-oid order on tick boundaries,
decode is pure arithmetic, and no events are scheduled here — the OSD
ticker is the only clock.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.rados.erasure import ErasureCodec
from repro.rados.objects import StoredObject
from repro.store.base import ObjectStore


class ColdObject:
    """One flushed object: EC shards + verbatim metadata."""

    __slots__ = ("oid", "shards", "length", "omap", "xattrs", "version")

    def __init__(self, oid: str, shards: List[bytes], length: int,
                 omap: Dict[str, Any], xattrs: Dict[str, Any],
                 version: int):
        self.oid = oid
        self.shards = shards
        self.length = length
        self.omap = omap
        self.xattrs = xattrs
        self.version = version


class ColdStore(ObjectStore):
    """Staging + erasure-coded cold area; encoded a batch per flush."""

    __slots__ = ("codec", "_staging", "_cold", "encode_batches")

    profile = "coldstore"
    needs_maintenance = True

    #: Modeled service delays (simulated seconds): staged ops are
    #: memory-cheap; a cold read reconstructs from shards.
    STAGE_DELAY = 25e-6
    COLD_READ_DELAY = 450e-6

    def __init__(self, k: int = 2, m: int = 1,
                 perf: Optional[Any] = None):
        super().__init__(perf)
        self.codec = ErasureCodec(k, m)
        self._staging: Dict[str, StoredObject] = {}
        self._cold: Dict[str, ColdObject] = {}
        self.encode_batches = 0

    # -- internals ------------------------------------------------------
    def _thaw(self, cold: ColdObject) -> StoredObject:
        """Reconstruct a StoredObject from its cold record."""
        data = self.codec.decode(
            {i: s for i, s in enumerate(cold.shards)}, cold.length)
        obj = StoredObject(cold.oid)
        obj.data = bytearray(data)
        obj.omap = dict(cold.omap)
        obj.xattrs = dict(cold.xattrs)
        obj.version = cold.version
        return obj

    def _freeze(self, obj: StoredObject, shards: List[bytes]) -> None:
        self._cold[obj.oid] = ColdObject(
            obj.oid, shards, obj.size,
            dict(obj.omap), dict(obj.xattrs), obj.version)

    def staged_count(self) -> int:
        return len(self._staging)

    # -- MutableMapping -------------------------------------------------
    def __getitem__(self, oid: str) -> StoredObject:
        if oid in self._staging:
            return self._staging[oid]
        return self._thaw(self._cold[oid])  # KeyError when absent

    def __setitem__(self, oid: str, obj: StoredObject) -> None:
        self._staging[oid] = obj

    def __delitem__(self, oid: str) -> None:
        found = self._staging.pop(oid, None) is not None
        found = (self._cold.pop(oid, None) is not None) or found
        if not found:
            raise KeyError(oid)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(set(self._staging) | set(self._cold)))

    def __len__(self) -> int:
        return len(set(self._staging) | set(self._cold))

    # -- client-op plane ------------------------------------------------
    def fetch(self, oid: str) -> Tuple[Optional[StoredObject], float]:
        if oid in self._staging:
            self.incr("stage_read")
            return self._staging[oid], self.STAGE_DELAY
        cold = self._cold.get(oid)
        if cold is None:
            self.incr("miss")
            return None, self.STAGE_DELAY
        self.incr("cold_read")
        return self._thaw(cold), self.COLD_READ_DELAY

    def commit(self, obj: StoredObject) -> float:
        self._staging[obj.oid] = obj
        self.incr("stage_write")
        return self.STAGE_DELAY

    def discard(self, oid: str) -> float:
        self.pop(oid, None)
        return self.STAGE_DELAY

    # -- maintenance ----------------------------------------------------
    def maintenance(self, now: float) -> None:
        if self._staging:
            self._flush_staging()

    def flush(self, now: float) -> None:
        if self._staging:
            self._flush_staging()

    def _flush_staging(self) -> None:
        """Encode every staged object in one flush (one batch)."""
        count = len(self._staging)
        for oid in sorted(self._staging):
            obj = self._staging[oid]
            self._freeze(obj, self.codec.encode(bytes(obj.data)))
        self._staging.clear()
        self.encode_batches += 1
        self.incr("encode_batch")
        self.incr("encoded_objects", count)

    # -- introspection --------------------------------------------------
    def status(self) -> Dict[str, Any]:
        return {
            "profile": self.profile,
            "objects": len(self),
            "bytes": (sum(o.size for o in self._staging.values())
                      + sum(c.length for c in self._cold.values()
                            if c.oid not in self._staging)),
            "staged": len(self._staging),
            "cold": len(self._cold),
            "k": self.codec.k,
            "m": self.codec.m,
            "encode_batches": self.encode_batches,
        }
