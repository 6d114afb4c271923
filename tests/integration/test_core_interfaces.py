"""Integration tests: composing the five interfaces (the paper's point).

The interesting behaviour is not each interface alone but their
composition: guards on service metadata vetting dynamic code before it
propagates; durability + load balancing versioning policies; file
types riding the lease machinery.
"""

import pytest

from repro.core import (
    DataIOInterface,
    DurabilityInterface,
    FileTypeInterface,
    LoadBalancingInterface,
    MalacologyCluster,
    ServiceMetadataInterface,
    SharedResourceInterface,
)
from repro.errors import NotFound, NotPermitted
from repro.mds.inode import FileType


@pytest.fixture(scope="module")
def cluster():
    return MalacologyCluster.build(osds=4, mdss=1, seed=77)


def test_service_metadata_guard_vets_writes(cluster):
    c = cluster
    svc = ServiceMetadataInterface(c.admin, cluster=c)

    def guard(key, value):
        if not isinstance(value, dict) or "owner" not in value:
            raise NotPermitted("deployments must declare an owner")
        value["vetted"] = True
        return value

    svc.register_guard("deploy/", guard)
    with pytest.raises(NotPermitted):
        c.do(svc.put("deploy/app", ["no-owner"]))
    c.do(svc.put("deploy/app", {"owner": "ops"}))
    entry = c.do(svc.get("deploy/app"))
    assert entry["value"] == {"owner": "ops", "vetted": True}
    # The guard applies only under its prefix.
    c.do(svc.put("other/app", ["anything"]))


def test_a_counting_guard_runs_once_per_monitor(cluster):
    """Every monitor applies the same committed batch, so a guard must
    see its own copy of the value or the replicas diverge."""
    c = cluster
    svc = ServiceMetadataInterface(c.admin, cluster=c)

    def count(key, value):
        value["hits"] = value.get("hits", 0) + 1
        return value

    svc.register_guard("count/", count)
    c.do(svc.put("count/x", {"owner": "ops"}))
    c.run(2.0)
    stored = [m.store.kv["count/x"]["value"] for m in c.mons]
    assert len(stored) == 3
    assert stored == [{"owner": "ops", "hits": 1}] * 3


def test_durability_interface_stores_and_lists(cluster):
    c = cluster
    durability = DurabilityInterface(c.admin)
    c.do(durability.store("artifact-1", b"bytes"))
    assert c.do(durability.fetch("artifact-1")) == b"bytes"
    assert c.do(durability.exists("artifact-1"))
    assert not c.do(durability.exists("artifact-ghost"))


def test_load_balancing_versions_compose_with_durability(cluster):
    c = cluster
    lb = LoadBalancingInterface(c.admin)
    c.do(lb.publish_policy("alpha", "def when():\n    return False\n"))
    c.do(lb.publish_policy("beta", "def when():\n    return False\n"))
    assert c.do(lb.get_version()) == "beta"
    # Both versions remain durably fetchable — rollback is a version
    # flip, not a re-upload.
    durability = DurabilityInterface(c.admin)
    assert c.do(durability.exists("mantle.policy.alpha"))
    c.do(lb.set_version("alpha"))
    assert c.do(lb.get_version()) == "alpha"


def test_custom_file_type_rides_the_lease_machinery(cluster):
    c = cluster

    class HighWaterMark(FileType):
        """Tracks the maximum value ever reported."""

        name = "hwm"

        def initial_state(self):
            return {"max": None}

        def execute(self, inode, method, args):
            if method == "report":
                value = args["value"]
                current = inode.embedded["max"]
                if current is None or value > current:
                    inode.embedded["max"] = value
                return inode.embedded["max"]
            if method == "read":
                return inode.embedded["max"]
            raise NotFound(f"hwm has no method {method!r}")

        def merge_flush(self, inode, dirty):
            value = dirty.get("max")
            current = inode.embedded["max"]
            if value is not None and (current is None or value > current):
                inode.embedded["max"] = value

    if not FileTypeInterface.known_type("hwm"):
        FileTypeInterface.register_type(HighWaterMark())
    ftype = FileTypeInterface(c.admin)
    c.do(ftype.create("/hwm-sensor", "hwm"))
    assert c.do(ftype.execute("/hwm-sensor", "report", {"value": 10})) == 10
    assert c.do(ftype.execute("/hwm-sensor", "report", {"value": 7})) == 10
    assert c.do(ftype.execute("/hwm-sensor", "read")) == 10


def test_data_io_and_service_metadata_compose(cluster):
    """Register an interface AND its deployment record atomically-ish:
    the version in service metadata always refers to an installed
    class."""
    c = cluster
    data_io = DataIOInterface(c.admin)
    svc = ServiceMetadataInterface(c.admin)
    source = ("def touch(ctx, args):\n"
              "    ctx.xattr_set('touched', True)\n"
              "    return {'ok': True}\n"
              "METHODS = {'touch': touch}\n")
    c.do(data_io.install("composed", 1, source, category="metadata"))
    c.do(svc.put("interfaces/composed", {"version": 1}))
    c.run(2.0)
    installed = c.do(data_io.installed())
    recorded = c.do(svc.get("interfaces/composed"))
    assert installed["composed"]["version"] == recorded["value"]["version"]
    out = c.do(data_io.execute("data", "obj-x", "composed", "touch"))
    assert out == {"ok": True}


def test_shared_resource_policy_changes_apply_to_new_grants(cluster):
    c = cluster
    shared = SharedResourceInterface(c.admin)
    c.do(c.admin.fs_create("/policy-probe", file_type="sequencer"))
    c.do(shared.set_lease_policy("round-trip"))
    client = c.new_client("probe-1")
    proc = client.do(client.seq_next("/policy-probe"))
    c.sim.run_until_complete(proc)
    assert client._caps == {}  # round-trip: nothing cached
    c.do(shared.set_lease_policy("best-effort"))
    client2 = c.new_client("probe-2")
    proc = client2.do(client2.seq_next("/policy-probe"))
    c.sim.run_until_complete(proc)
    assert client2._caps  # cacheable again
