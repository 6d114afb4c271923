"""RBD-like images: thin-provisioned virtual block devices on RADOS.

Layout (mirroring librbd's):

* a *header* object ``rbd_header.<name>`` whose omap holds the image
  metadata (size, object_size), guarded by the ``version`` object
  class so concurrent administrative updates are optimistic;
* *data* objects ``rbd_data.<name>.<n>``, created lazily on first
  write (thin provisioning); reads of never-written ranges return
  zeros.

All methods are generators driven on a full-stack client.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import InvalidArgument, NotFound
from repro.rados.client import striped_object


class Image:
    """Handle on one block image."""

    DEFAULT_OBJECT_SIZE = 64 * 1024
    POOL = "data"

    def __init__(self, client: Any, name: str):
        if not name or "/" in name:
            raise InvalidArgument(f"bad image name {name!r}")
        self.client = client
        self.name = name
        self.size = 0
        self.object_size = self.DEFAULT_OBJECT_SIZE

    @property
    def header_object(self) -> str:
        return f"rbd_header.{self.name}"

    @property
    def data_prefix(self) -> str:
        return f"rbd_data.{self.name}"

    def data_object(self, index: int) -> str:
        return striped_object(self.data_prefix, index)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, size: int,
               object_size: Optional[int] = None) -> Generator:
        if size < 0:
            raise InvalidArgument("negative image size")
        object_size = object_size or self.DEFAULT_OBJECT_SIZE
        if object_size <= 0:
            raise InvalidArgument("object_size must be positive")
        yield from self.client.rados_op(self.POOL, self.header_object, [
            {"op": "create", "exclusive": True},
            {"op": "exec", "cls": "kvstore", "method": "put",
             "args": {"set": {"size": size, "object_size": object_size}}},
            {"op": "exec", "cls": "version", "method": "bump", "args": {}},
        ])
        self.size = size
        self.object_size = object_size

    def open(self) -> Generator:
        results = yield from self.client.rados_op(
            self.POOL, self.header_object,
            [{"op": "exec", "cls": "kvstore", "method": "get",
              "args": {"keys": ["size", "object_size"]}}])
        values = results[0]["values"]
        if "size" not in values:
            raise NotFound(f"image {self.name!r} has no header")
        self.size = values["size"]
        self.object_size = values["object_size"]

    def resize(self, new_size: int) -> Generator:
        """Grow or shrink; shrinking trims whole objects past the end."""
        if new_size < 0:
            raise InvalidArgument("negative image size")
        old_size = self.size
        yield from self.client.rados_exec(
            self.POOL, self.header_object, "kvstore", "put",
            {"set": {"size": new_size}})
        self.size = new_size
        if new_size < old_size:
            first_dead = (new_size + self.object_size - 1) \
                // self.object_size
            last_old = (old_size - 1) // self.object_size
            for index in range(first_dead, last_old + 1):
                try:
                    yield from self.client.rados_remove(
                        self.POOL, self.data_object(index))
                except NotFound:
                    pass  # thin-provisioned hole

    def remove(self) -> Generator:
        last = (self.size - 1) // self.object_size if self.size else -1
        for index in range(last + 1):
            try:
                yield from self.client.rados_remove(
                    self.POOL, self.data_object(index))
            except NotFound:
                pass
        yield from self.client.rados_remove(self.POOL, self.header_object)
        self.size = 0

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise InvalidArgument("negative offset/length")
        if offset + length > self.size:
            raise InvalidArgument(
                f"I/O past end of image ({offset}+{length} > {self.size})")

    def write(self, offset: int, data: bytes) -> Generator:
        self._check_range(offset, len(data))
        yield from self.client.rados_write_striped(
            self.POOL, self.data_prefix, self.object_size, offset, data)

    def read(self, offset: int, length: int) -> Generator:
        """Read a range; never-written objects read as zeros."""
        self._check_range(offset, length)
        data = yield from self.client.rados_read_striped(
            self.POOL, self.data_prefix, self.object_size, offset, length)
        return data

    def __repr__(self) -> str:
        return f"Image({self.name!r}, {self.size}B/{self.object_size}B)"
