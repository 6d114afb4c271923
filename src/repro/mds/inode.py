"""Inodes and the File Type interface (paper section 4.3.2).

An inode carries ordinary POSIX-ish attributes plus a *file type* and
an ``embedded`` state dict owned by that type's plugin.  Plugins define
domain-specific server-side operations on the embedded state and how
dirty client-cached state merges back on capability release — "new
inode types ... that may modify locking and capability policies".

ZLog registers the ``sequencer`` type: its embedded state is the log
tail counter, its ``next`` operation is the CORFU position grant, and
its lease-policy override is how the Shared Resource experiments
(Figures 5-7) switch sequencer caching modes per inode.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, Optional

from repro.errors import InvalidArgument, NotFound

#: Inode kinds.
DIR = "dir"
FILE = "file"


class FileType:
    """A pluggable inode type.

    Subclass (or instantiate with callables) and register via
    :meth:`FileTypeRegistry.register`.  All hooks receive the inode and
    must mutate only ``inode.embedded``.
    """

    name = "regular"

    def initial_state(self) -> Dict[str, Any]:
        """Embedded state for a freshly created inode of this type."""
        return {}

    def execute(self, inode: "Inode", method: str,
                args: Dict[str, Any]) -> Any:
        """Server-side operation on the inode's embedded state."""
        raise NotFound(f"file type {self.name!r} has no method {method!r}")

    def merge_flush(self, inode: "Inode",
                    dirty: Dict[str, Any]) -> None:
        """Fold client-cached dirty state back in on cap release."""

    def lease_policy_override(
            self, policy: Dict[str, Any]) -> Dict[str, Any]:
        """Adjust the cluster lease policy for inodes of this type."""
        return policy


class SequencerType(FileType):
    """The ZLog sequencer as an inode (paper section 5.2.1).

    Embedded state is the 64-bit log tail.  ``next`` atomically grants
    and bumps the tail; ``read`` peeks.  When a client holds the
    exclusive capability it performs the same transition locally and
    the dirty tail merges back monotonically on release.
    """

    name = "sequencer"

    def initial_state(self) -> Dict[str, Any]:
        return {"tail": 0}

    def execute(self, inode: "Inode", method: str,
                args: Dict[str, Any]) -> Any:
        state = inode.embedded
        if method == "next":
            pos = state["tail"]
            state["tail"] = pos + 1
            return pos
        if method == "read":
            return state["tail"]
        if method == "set_min_tail":
            # Recovery/collision path: never rewind, only jump forward.
            floor = args.get("tail", 0)
            if floor > state["tail"]:
                state["tail"] = floor
            return state["tail"]
        raise NotFound(f"sequencer has no method {method!r}")

    def merge_flush(self, inode: "Inode", dirty: Dict[str, Any]) -> None:
        # Tails only move forward; a stale flush can never rewind the
        # log and hand out duplicate positions.
        tail = dirty.get("tail", 0)
        if tail > inode.embedded["tail"]:
            inode.embedded["tail"] = tail


class FileTypeRegistry:
    """Global registry of inode types, shared by MDSs and clients."""

    def __init__(self) -> None:
        self._types: Dict[str, FileType] = {}
        self.register(FileType())
        self.register(SequencerType())

    def register(self, ft: FileType) -> None:
        if ft.name in self._types:
            raise InvalidArgument(f"file type {ft.name!r} already exists")
        self._types[ft.name] = ft

    def get(self, name: str) -> FileType:
        ft = self._types.get(name)
        if ft is None:
            raise NotFound(f"unknown file type {name!r}")
        return ft

    def known(self, name: str) -> bool:
        return name in self._types


#: The process-wide registry (types are code, present identically on
#: every daemon, like object classes compiled into OSDs).
file_type_registry = FileTypeRegistry()

#: The root directory's well-known inode number.
ROOT_INO = 1


class InoAllocator:
    """Per-rank inode number allocation from disjoint ranges.

    Each MDS rank owns a private range (as CephFS pre-allocates ino
    ranges per rank), so concurrent creates on different ranks never
    collide and simulation runs stay deterministic per seed.
    """

    RANGE = 1 << 40

    def __init__(self, rank: int):
        if rank < 0:
            raise InvalidArgument(f"bad rank {rank}")
        base = rank * self.RANGE + 2  # skip 0 and the root ino
        self._counter = itertools.count(base)

    def allocate(self) -> int:
        return next(self._counter)


class Inode:
    """One file-system object's metadata."""

    __slots__ = ("ino", "kind", "file_type", "embedded", "version",
                 "size", "popularity")

    def __init__(self, ino: int, kind: str, file_type: str = "regular",
                 embedded: Optional[Dict[str, Any]] = None):
        if kind not in (DIR, FILE):
            raise InvalidArgument(f"bad inode kind {kind!r}")
        self.ino = ino
        self.kind = kind
        self.file_type = file_type
        #: Edited in place by ``execute``.  Adopted, not copied: only
        #: ``from_dict`` passes one, fed by the wire or ``to_dict``.
        self.embedded: Dict[str, Any] = (
            embedded if embedded is not None
            else file_type_registry.get(file_type).initial_state())
        self.version = 0
        self.size = 0
        #: Decayed request counter used by load balancing policies.
        self.popularity = 0.0

    @property
    def type_plugin(self) -> FileType:
        return file_type_registry.get(self.file_type)

    def execute(self, method: str, args: Dict[str, Any]) -> Any:
        result = self.type_plugin.execute(self, method, args)
        self.version += 1
        return result

    def merge_flush(self, dirty: Dict[str, Any]) -> None:
        self.type_plugin.merge_flush(self, dirty)
        self.version += 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ino": self.ino,
            "kind": self.kind,
            "file_type": self.file_type,
            "embedded": copy.deepcopy(self.embedded),
            "version": self.version,
            "size": self.size,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Inode":
        inode = cls(d["ino"], d["kind"], d["file_type"], d["embedded"])
        inode.version = d["version"]
        inode.size = d["size"]
        return inode

    def __repr__(self) -> str:
        return (f"Inode({self.ino}, {self.kind}, type={self.file_type!r}, "
                f"v{self.version})")
