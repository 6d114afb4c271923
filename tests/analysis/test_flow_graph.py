"""Golden graph extraction on a toy two-daemon module, determinism
pins, and the architecture-drift gate over the committed artifacts.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis import flow
from repro.analysis.astcache import SourceFile
from repro.analysis.flow import build, extract
from repro.analysis.flow.emit import (
    DOT_NAME,
    JSON_NAME,
    check_drift,
    graph_doc,
    render_admin_inventory,
    render_json,
)

REPO = Path(__file__).resolve().parents[2]

#: Two daemons, a mixin with a dynamic-method wrapper, a lambda
#: handler, an admin command, and a helper registration — the
#: extraction features in one toy module.
TOY = '''\
class Daemon:
    def register_handler(self, name, fn):
        pass

    def register_admin_command(self, name, fn):
        pass

    def call(self, dst, method, payload=None, timeout=None):
        pass

    def cast(self, dst, method, payload=None):
        pass


class PingClient:
    def init_ping(self):
        self.register_handler("pong_notify", self._h_pong)

    def _h_pong(self, src, payload):
        self.last = payload["n"]

    def ping_request(self, method, payload):
        mon = "mon0"
        return self.call(mon, method, payload, timeout=5)


def install_debug(daemon):
    daemon.register_admin_command("debug.dump", lambda args: {})


class Monitor(Daemon):
    def setup(self):
        rh = self.register_handler
        rh("mon_ping", self._h_ping)
        rh("mon_status", lambda src, p: "ok")
        install_debug(self)

    def _h_ping(self, src, payload):
        if payload["n"] > 0:
            return {"n": payload["n"] + 1}
        return {"n": 0}

    def poke(self, peer):
        self.cast(peer, "mon_ping", {"n": 0})


class OSDServer(Daemon, PingClient):
    def run(self):
        reply = yield self.ping_request("mon_ping", {"n": 3})
        return reply
'''


def toy_extraction():
    sf = SourceFile(path=Path("src/repro/fake/toy.py"), source=TOY,
                    lines=TOY.splitlines())
    sf.tree = ast.parse(TOY)
    return extract([sf])


# ----------------------------------------------------------------------
# Golden graph
# ----------------------------------------------------------------------
def test_toy_graph_kinds_and_handler_tables():
    g = toy_extraction().graph
    assert sorted(g.kinds) == ["mon", "osd"]
    mon = g.kinds["mon"]
    assert sorted(mon.handlers) == ["debug.dump", "mon_ping",
                                    "mon_status"]
    assert mon.admin_commands == ["debug.dump"]
    # Helper registration on a generic ``daemon`` parameter lands on
    # every kind and is marked as such.
    assert mon.handlers["debug.dump"].via == "admin+helper"
    assert "debug.dump" in g.kinds["osd"].handlers
    # The mixin handler binds only to the kind that inherits it.
    assert "pong_notify" in g.kinds["osd"].handlers
    assert "pong_notify" not in mon.handlers


def test_toy_graph_handler_analysis():
    g = toy_extraction().graph
    ping = g.kinds["mon"].handlers["mon_ping"]
    assert ping.cls == "Monitor" and ping.func == "_h_ping"
    assert ping.payload_keys == ("n",)
    assert ping.returns_value and not ping.falls_through
    status = g.kinds["mon"].handlers["mon_status"]
    assert status.func == "<lambda>" and status.returns_value


def test_toy_graph_direct_and_wrapper_edges():
    g = toy_extraction().graph
    by_via = {s.via: s for s in g.sites}
    direct = by_via["direct"]
    assert (direct.src_kinds, direct.mode) == (("mon",), "cast")
    assert direct.method == "mon_ping"
    # ``peer`` resolves to the caller's own kind.
    assert (direct.dst_kind, direct.resolution) == ("mon", "peer")
    assert direct.payload_keys == ("n",) \
        and direct.payload_exhaustive is True
    wrapped = by_via["wrapper:ping_request"]
    assert wrapped.src_kinds == ("osd",)
    assert wrapped.method == "mon_ping"
    # dst resolved inside the wrapper by local dataflow (mon = "mon0");
    # payload comes from the caller's literal.
    assert (wrapped.dst_kind, wrapped.resolution) == ("mon", "dataflow")
    assert wrapped.payload_keys == ("n",)
    assert wrapped.consumes_reply and wrapped.has_timeout
    assert wrapped.path.endswith("toy.py")


def test_toy_graph_method_registry_and_dot():
    g = toy_extraction().graph
    payload = g.to_payload()
    assert payload["methods"]["mon_ping"] == {
        "registered_by": ["mon"], "site_count": 2}
    dot = g.to_dot()
    assert '"osd" -> "mon" [label="mon_ping"]' in dot
    assert 'style=dashed' in dot          # the cast edge
    assert dot == g.to_dot()              # rendering is pure


def test_extraction_is_deterministic():
    a = json.dumps(toy_extraction().graph.to_payload(), sort_keys=True)
    b = json.dumps(toy_extraction().graph.to_payload(), sort_keys=True)
    assert a == b


def test_admin_inventory_rendering():
    ex = toy_extraction()
    table = render_admin_inventory(ex)
    assert "| mon | `debug.dump` |" in table
    assert "| osd | `debug.dump` |" in table


# ----------------------------------------------------------------------
# Acceptance + drift gate on the real tree
# ----------------------------------------------------------------------
def real_extraction():
    return build([str(REPO / "src" / "repro")])


def test_shipped_tree_flow_is_clean():
    """Acceptance: MAL010-018 produce no unwaived findings (and no
    unused flow waivers) on the shipped tree."""
    from repro.analysis.__main__ import _flow_pass

    findings = _flow_pass([str(REPO / "src" / "repro")])
    assert findings == [], [f.render() for f in findings]


def test_committed_rpc_graph_matches_tree():
    """The drift gate: committed artifacts must equal regeneration."""
    ex = real_extraction()
    errors = check_drift(ex, REPO / "docs")
    assert errors == [], "\n".join(errors)


def test_drift_gate_catches_stale_artifacts(tmp_path):
    ex = real_extraction()
    # Fresh emission passes...
    flow.emit.emit_artifacts(ex, tmp_path)
    assert check_drift(ex, tmp_path) == []
    # ...then any content change trips both comparisons.
    doc = json.loads((tmp_path / JSON_NAME).read_text())
    doc["graph"]["edges"] = []
    (tmp_path / JSON_NAME).write_text(render_json(doc))
    (tmp_path / DOT_NAME).write_text("digraph rpc {}\n")
    errors = check_drift(ex, tmp_path)
    assert len(errors) == 2 and all("stale" in e for e in errors)


def test_drift_gate_ignores_git_sha_advance(tmp_path):
    ex = real_extraction()
    flow.emit.emit_artifacts(ex, tmp_path)
    doc = json.loads((tmp_path / JSON_NAME).read_text())
    doc["git_sha"] = "0" * 40      # artifact from an older commit
    (tmp_path / JSON_NAME).write_text(render_json(doc))
    assert check_drift(ex, tmp_path) == []


def test_graph_doc_is_stamped_and_relative():
    doc = graph_doc(real_extraction())
    assert doc["schema_version"] == 1
    assert isinstance(doc["git_sha"], str)
    for edge in doc["graph"]["edges"]:
        assert not Path(edge["path"]).is_absolute()
        assert edge["path"].startswith("src/repro/")
