"""Integration tests: the file-data and block (RBD) user-facing APIs.

Figure 1 shows Malacology's services sitting alongside the traditional
file / block / object interfaces; these tests exercise the other two
user-facing paths end to end on the same cluster.
"""

import pytest

from repro.core import MalacologyCluster
from repro.errors import InvalidArgument, NotFound
from repro.rbd import Image


@pytest.fixture(scope="module")
def cluster():
    return MalacologyCluster.build(osds=4, mdss=1, seed=103)


# ----------------------------------------------------------------------
# File data I/O
# ----------------------------------------------------------------------
def test_file_write_read_round_trip(cluster):
    c = cluster
    c.do(c.admin.fs_mkdir("/files"))
    c.do(c.admin.fs_create("/files/doc"))
    c.do(c.admin.fs_write("/files/doc", 0, b"hello file world"))
    assert c.do(c.admin.fs_read("/files/doc")) == b"hello file world"
    assert c.do(c.admin.fs_stat("/files/doc"))["size"] == 16


def test_file_striping_across_objects(cluster):
    c = cluster
    c.do(c.admin.fs_create("/files/big"))
    bs = c.admin.FILE_OBJECT_SIZE
    blob = bytes((i * 7) % 256 for i in range(bs * 2 + 100))
    c.do(c.admin.fs_write("/files/big", 0, blob))
    assert c.do(c.admin.fs_read("/files/big")) == blob
    # Partial reads spanning a stripe boundary.
    assert c.do(c.admin.fs_read("/files/big", bs - 10, 20)) == \
        blob[bs - 10: bs + 10]
    # The data genuinely striped over multiple RADOS objects, named
    # ino.<ino:016x>.<block:08x>.
    ino = c.do(c.admin.fs_stat("/files/big"))["ino"]
    obj0 = c.do(c.admin.rados_stat("data", f"ino.{ino:016x}.00000000"))
    obj1 = c.do(c.admin.rados_stat("data", f"ino.{ino:016x}.00000001"))
    assert obj0["size"] == bs and obj1["size"] == bs


def test_file_sparse_writes_read_zeros(cluster):
    c = cluster
    c.do(c.admin.fs_create("/files/sparse"))
    bs = c.admin.FILE_OBJECT_SIZE
    c.do(c.admin.fs_write("/files/sparse", bs * 2, b"tail"))
    data = c.do(c.admin.fs_read("/files/sparse", bs - 4, 8))
    assert data == b"\x00" * 8
    assert c.do(c.admin.fs_read("/files/sparse", bs * 2, 4)) == b"tail"


def test_file_io_on_directory_rejected(cluster):
    with pytest.raises(InvalidArgument):
        cluster.do(cluster.admin.fs_write("/files", 0, b"x"))


def test_read_past_eof_is_empty(cluster):
    c = cluster
    c.do(c.admin.fs_create("/files/short"))
    c.do(c.admin.fs_write("/files/short", 0, b"abc"))
    assert c.do(c.admin.fs_read("/files/short", 10, 5)) == b""
    assert c.do(c.admin.fs_read("/files/short", 1, 100)) == b"bc"


# ----------------------------------------------------------------------
# Block device (RBD)
# ----------------------------------------------------------------------
def test_image_create_write_read(cluster):
    c = cluster
    img = Image(c.admin, "vm-disk")
    c.do(img.create(size=256 * 1024, object_size=32 * 1024))
    pattern = bytes(range(256)) * 16
    c.do(img.write(0, pattern))
    c.do(img.write(100 * 1024, b"deep-write"))
    assert c.do(img.read(0, len(pattern))) == pattern
    assert c.do(img.read(100 * 1024, 10)) == b"deep-write"


def test_image_thin_provisioning_reads_zeros(cluster):
    c = cluster
    img = Image(c.admin, "thin")
    c.do(img.create(size=128 * 1024, object_size=32 * 1024))
    assert c.do(img.read(64 * 1024, 100)) == b"\x00" * 100


def test_image_open_recovers_metadata(cluster):
    c = cluster
    img = Image(c.admin, "reopen")
    c.do(img.create(size=64 * 1024, object_size=16 * 1024))
    c.do(img.write(0, b"persisted"))
    other = Image(c.new_client("rbd-2"), "reopen")
    proc = other.client.do(other.open())
    c.sim.run_until_complete(proc)
    assert other.size == 64 * 1024
    assert other.object_size == 16 * 1024
    proc = other.client.do(other.read(0, 9))
    assert c.sim.run_until_complete(proc) == b"persisted"


def test_image_io_bounds_enforced(cluster):
    c = cluster
    img = Image(c.admin, "bounded")
    c.do(img.create(size=1024))
    with pytest.raises(InvalidArgument):
        c.do(img.write(1000, b"x" * 100))
    with pytest.raises(InvalidArgument):
        c.do(img.read(0, 2048))


def test_image_resize_shrink_trims_objects(cluster):
    c = cluster
    img = Image(c.admin, "shrinky")
    c.do(img.create(size=96 * 1024, object_size=32 * 1024))
    c.do(img.write(80 * 1024, b"doomed"))
    c.do(img.resize(32 * 1024))
    assert img.size == 32 * 1024
    with pytest.raises(NotFound):
        c.do(c.admin.rados_stat("data", "rbd_data.shrinky.00000002"))
    # Growing back exposes zeros, not stale data.
    c.do(img.resize(96 * 1024))
    assert c.do(img.read(80 * 1024, 6)) == b"\x00" * 6


def test_image_remove_cleans_up(cluster):
    c = cluster
    img = Image(c.admin, "doomed")
    c.do(img.create(size=32 * 1024))
    c.do(img.write(0, b"bye"))
    c.do(img.remove())
    with pytest.raises(NotFound):
        c.do(c.admin.rados_stat("data", img.header_object))


def test_image_duplicate_create_conflicts(cluster):
    from repro.errors import AlreadyExists

    c = cluster
    img = Image(c.admin, "dup-image")
    c.do(img.create(size=1024))
    with pytest.raises(AlreadyExists):
        c.do(Image(c.admin, "dup-image").create(size=2048))


def test_object_snapshot_via_exec(cluster):
    """The Table 1 snapshot example over the wire."""
    c = cluster
    c.do(c.admin.rados_write_full("data", "snappable", b"state-1"))
    c.do(c.admin.rados_exec("data", "snappable", "snapshot", "create",
                            {"name": "before"}))
    c.do(c.admin.rados_write_full("data", "snappable", b"state-2"))
    c.do(c.admin.rados_exec("data", "snappable", "snapshot", "rollback",
                            {"name": "before"}))
    assert c.do(c.admin.rados_read("data", "snappable")) == b"state-1"
