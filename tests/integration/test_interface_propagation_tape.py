"""Integration: interface propagation through the OSD map keeps its schedule.

A golden delivery tape, pinned like ``test_rados_deadline_tape``'s: the
(send count, sha256) of every network send, timestamps included, while
a monitor publishes several versions of two object interfaces to 24
OSDs with peer pings running (paper section 4.4, Fig. 8).  One version
does not compile, so every OSD logs the failure to the monitors and
keeps serving the previous version.  One OSD crashes, is pinged out
of the map and restarts, so the up set changes twice.  The tape
covers gossip fan-out (``_gossip_rng.sample``), ping target choice
(``_gossip_rng.choice``), the per-OSD install delay draws and every
message's latency draw: any change to the peer sequence those draws
read, or to the draws themselves, moves it.
"""

import hashlib

from repro.core import MalacologyCluster
from repro.rados.osd import OSD
from repro.testing import record_sends

# Captured before class source was compiled once per source and gossip
# peers were memoized per map.
GOLDEN_SENDS = 3186
GOLDEN_DIGEST = \
    "2f1ef649da0e9549951c9e109931841517e86cb76e44d0561aaf2e375973c9b2"

OSDS = 24


def _source(tag: int) -> str:
    return (f"def ping(ctx, args):\n"
            f"    return {{'v': args.get('v'), 'tag': {tag}}}\n\n"
            f"METHODS = {{'ping': ping}}\n")


BROKEN = "def ping(ctx, args)\n    return 1\n"

#: (interface, version, source) in publication order.
UPDATES = [
    ("echo", 1, _source(1)),
    ("echo", 2, _source(1)),
    ("stamp", 1, _source(2)),
    ("echo", 3, BROKEN),
    ("echo", 4, _source(3)),
]


def _run(monkeypatch):
    monkeypatch.setattr(OSD, "PING_INTERVAL", 0.2)
    c = MalacologyCluster.build(osds=OSDS, mdss=0, seed=4646,
                                proposal_interval=0.05)
    tape = record_sends(c.net)
    live = []
    for osd in c.osds:
        osd.interface_live_hook = (
            lambda name, version, t, who=osd.name:
            live.append((who, name, version)))
    victim = c.osds[5]
    marked_down = False
    for step, (name, version, source) in enumerate(UPDATES):
        c.do(c.admin.rados_install_interface(name, version, source))
        c.run(1.5)
        if step == 1:
            # Peers ping the crashed OSD out of the map; it misses one
            # version and catches up on the map when it comes back.
            victim.crash()
            c.run(2.0)
            marked_down = not c.mons[0].store.osdmap.is_up(victim.name)
        elif step == 2:
            victim.restart()
    return c, tape, live, marked_down


def test_interface_propagation_replays_its_tape(monkeypatch):
    c, tape, live, marked_down = _run(monkeypatch)
    assert marked_down, "the crashed OSD never left the map"
    assert c.mons[0].store.osdmap.up_osds() == tuple(
        sorted(o.name for o in c.osds))
    for osd in c.osds:
        assert osd.registry.version_of("echo") == 4, osd.name
        assert osd.registry.version_of("stamp") == 1, osd.name
    # The broken version went live nowhere; every other one everywhere.
    made_live = {}
    for who, name, version in live:
        made_live.setdefault((name, version), set()).add(who)
    everywhere = {o.name for o in c.osds}
    assert made_live == {("echo", 1): everywhere, ("echo", 2): everywhere,
                         ("stamp", 1): everywhere, ("echo", 4): everywhere}
    h = hashlib.sha256()
    for entry in tape:
        h.update(repr(entry).encode())
    assert (len(tape), h.hexdigest()) == (GOLDEN_SENDS, GOLDEN_DIGEST)
