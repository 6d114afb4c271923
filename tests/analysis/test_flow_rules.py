"""One must-flag and one must-pass case per flow rule (MAL010-018),
plus the waiver-scoping regression tests for MAL008.

Extractions are built from in-memory sources under a fake
``src/repro/...`` path so scope handling matches the real tree.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.astcache import SourceFile
from repro.analysis.flow import extract, flow_findings
from repro.analysis.linter import FileSuppressions, Linter
from repro.analysis.rules import default_rules

REPO = Path(__file__).resolve().parents[2]

#: Minimal messaging base so toy daemons look like the real ones.
BASE = '''\
class Daemon:
    def register_handler(self, name, fn):
        pass

    def register_admin_command(self, name, fn):
        pass

    def call(self, dst, method, payload=None, timeout=None):
        pass

    def cast(self, dst, method, payload=None):
        pass


'''


def build(source: str, path: str = "src/repro/fake/mod.py"):
    full = BASE + source
    sf = SourceFile(path=Path(path), source=full,
                    lines=full.splitlines())
    sf.tree = ast.parse(full)
    return extract([sf])


def codes(source: str, design_text=None):
    return [f.code for f in flow_findings(build(source), design_text)]


# ----------------------------------------------------------------------
# MAL010 unknown-method
# ----------------------------------------------------------------------
def test_mal010_flags_cast_to_unregistered_method():
    src = '''\
class Monitor(Daemon):
    def poke(self, peer):
        self.cast(peer, "mon_pong", {"n": 1})
'''
    assert "MAL010" in codes(src)


def test_mal010_flags_wrong_destination_kind():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_ping", self._h_ping)

    def _h_ping(self, src, payload):
        return payload["n"]

class OSDServer(Daemon):
    def poke(self):
        osd = "osd1"
        self.cast(osd, "mon_ping", {"n": 1})
'''
    found = flow_findings(build(src))
    assert any(f.code == "MAL010" and "osd" in f.message
               for f in found)


def test_mal010_passes_when_destination_registers_method():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_ping", self._h_ping)

    def _h_ping(self, src, payload):
        return payload["n"]

    def poke(self, peer):
        self.cast(peer, "mon_ping", {"n": 1})
'''
    assert "MAL010" not in codes(src)


# ----------------------------------------------------------------------
# MAL011 dead-handler
# ----------------------------------------------------------------------
def test_mal011_flags_handler_without_any_site():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_orphan", self._h_orphan)

    def _h_orphan(self, src, payload):
        return 1
'''
    assert "MAL011" in codes(src)


def test_mal011_exempts_admin_commands():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_admin_command("mon.dump", self._h_dump)

    def _h_dump(self, args):
        return {}
'''
    assert "MAL011" not in codes(src)


# ----------------------------------------------------------------------
# MAL012 silent-None reply
# ----------------------------------------------------------------------
def test_mal012_flags_call_handler_with_fallthrough_path():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_get", self._h_get)

    def _h_get(self, src, payload):
        if payload["key"] in self.kv:
            return self.kv[payload["key"]]

class Client(Daemon):
    def run(self):
        v = yield self.call("mon0", "mon_get", {"key": "a"})
        return v
'''
    assert "MAL012" in codes(src)


def test_mal012_passes_when_every_path_returns_or_raises():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_get", self._h_get)

    def _h_get(self, src, payload):
        if payload["key"] in self.kv:
            return self.kv[payload["key"]]
        raise KeyError(payload["key"])

class Client(Daemon):
    def run(self):
        v = yield self.call("mon0", "mon_get", {"key": "a"})
        return v
'''
    assert "MAL012" not in codes(src)


# ----------------------------------------------------------------------
# MAL013 dropped Future
# ----------------------------------------------------------------------
def test_mal013_flags_discarded_call_future():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_ping", lambda src, p: p["n"])

    def poke(self):
        self.call("mon1", "mon_ping", {"n": 1})
'''
    assert "MAL013" in codes(src)


def test_mal013_flags_future_assigned_but_never_read():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_ping", lambda src, p: p["n"])

    def poke(self):
        fut = self.call("mon1", "mon_ping", {"n": 1})
'''
    assert "MAL013" in codes(src)


def test_mal013_passes_yielded_timeout_and_callback_futures():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_ping", lambda src, p: p["n"])

    def a(self):
        r = yield self.call("mon1", "mon_ping", {"n": 1})
        return r

    def b(self):
        self.call("mon1", "mon_ping", {"n": 1}, timeout=5)

    def c(self):
        self.call("mon1", "mon_ping", {"n": 1}).add_done_callback(print)
'''
    assert "MAL013" not in codes(src)


# ----------------------------------------------------------------------
# MAL014 payload mismatch
# ----------------------------------------------------------------------
def test_mal014_flags_handler_key_absent_from_all_sites():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_put", self._h_put)

    def _h_put(self, src, payload):
        return payload["value"]

class Client(Daemon):
    def run(self):
        r = yield self.call("mon0", "mon_put", {"key": "a"})
        return r
'''
    found = flow_findings(build(src))
    assert any(f.code == "MAL014" and "value" in f.message
               for f in found)


def test_mal014_flags_site_key_no_handler_reads():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_put", self._h_put)

    def _h_put(self, src, payload):
        return payload["key"]

class Client(Daemon):
    def run(self):
        r = yield self.call("mon0", "mon_put", {"key": "a", "junk": 1})
        return r
'''
    found = flow_findings(build(src))
    assert any(f.code == "MAL014" and "junk" in f.message
               for f in found)


def test_mal014_passes_matching_and_optional_keys():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_put", self._h_put)

    def _h_put(self, src, payload):
        return (payload["key"], (payload or {}).get("hint", 0))

class Client(Daemon):
    def run(self):
        r = yield self.call("mon0", "mon_put", {"key": "a", "hint": 2})
        return r
'''
    assert "MAL014" not in codes(src)


def test_mal014_skips_wholesale_and_non_literal_payloads():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_fwd", self._h_fwd)

    def _h_fwd(self, src, payload):
        return self.apply(payload)

class Client(Daemon):
    def run(self, blob):
        r = yield self.call("mon0", "mon_fwd", {"anything": 1})
        s = yield self.call("mon0", "mon_fwd", blob)
        return (r, s)
'''
    assert "MAL014" not in codes(src)


# ----------------------------------------------------------------------
# MAL015 cast to a consumed-reply method
# ----------------------------------------------------------------------
def test_mal015_flags_cast_where_reply_consumed_elsewhere():
    src = '''\
class OSDServer(Daemon):
    def setup(self):
        self.register_handler("osd_pull", self._h_pull)

    def _h_pull(self, src, payload):
        return self.data

    def fetch(self):
        m = yield self.call("osd1", "osd_pull", {})
        return m

    def push(self, peer):
        self.cast(peer, "osd_pull", {})
'''
    assert "MAL015" in codes(src)


def test_mal015_passes_pure_fire_and_forget_methods():
    src = '''\
class OSDServer(Daemon):
    def setup(self):
        self.register_handler("osd_note", self._h_note)

    def _h_note(self, src, payload):
        self.notes = payload

    def push(self, peer):
        self.cast(peer, "osd_note", {"x": 1})
'''
    assert "MAL015" not in codes(src)


# ----------------------------------------------------------------------
# MAL016 undocumented admin command
# ----------------------------------------------------------------------
ADMIN_SRC = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_admin_command("mon.secret", lambda args: {})
'''


def test_mal016_flags_command_missing_from_design():
    assert "MAL016" in codes(ADMIN_SRC, design_text="| nothing here |")


def test_mal016_passes_documented_command_or_no_design():
    assert "MAL016" not in codes(
        ADMIN_SRC, design_text="| mon | `mon.secret` | ... |")
    assert "MAL016" not in codes(ADMIN_SRC, design_text=None)


# ----------------------------------------------------------------------
# MAL017 unsanitized protocol-state mutation
# ----------------------------------------------------------------------
def test_mal017_flags_unobserved_chosen_mutation():
    src = '''\
class Monitor(Daemon):
    def sync(self):
        self.chosen.learn(1, "v")
'''
    assert "MAL017" in codes(src)


def test_mal017_passes_with_plane_hook_in_same_function():
    src = '''\
class Monitor(Daemon):
    def sync(self):
        san = getattr(self.sim, "sanitizers", None)
        if san is not None:
            san.paxos.on_learn(self.name, 1, "v", daemon=self)
        self.chosen.learn(1, "v")
'''
    assert "MAL017" not in codes(src)


def test_mal017_ignores_init_and_unprotected_kinds():
    src = '''\
class Monitor(Daemon):
    def __init__(self):
        self.chosen.learn(0, "seed")

class OSDServer(Daemon):
    def apply(self):
        self.chosen.learn(1, "v")
'''
    assert "MAL017" not in codes(src)


# ----------------------------------------------------------------------
# MAL018 in-place edit of a payload that crossed the wire
# ----------------------------------------------------------------------
def _mal018(source):
    """MAL018 findings as (line within ``source``, message)."""
    offset = BASE.count("\n")
    return [(f.line - offset, f.message)
            for f in flow_findings(build(source)) if f.code == "MAL018"]


def test_mal018_flags_a_handler_editing_its_request():
    src = '''\
class OSDServer(Daemon):
    def setup(self):
        self.register_handler("osd_repop", self._h_repop)

    def _h_repop(self, src, payload):
        state = payload.get("state")
        state["omap"]["seen"] = True
        oid, ops = payload["oid"], payload["ops"]
        for op in ops:
            op.update(done=True)
        del payload["ops"]
        return oid

class Primary(OSDServer):
    def push(self, peer):
        self.cast(peer, "osd_repop", {"state": {}, "oid": "o", "ops": []})
'''
    found = _mal018(src)
    assert [line for line, _ in found] == [7, 10, 11]
    assert all("handler 'osd_repop' (OSDServer._h_repop)" in message
               for _, message in found)


def test_mal018_passes_a_handler_that_builds_new_values():
    src = '''\
class OSDServer(Daemon):
    def setup(self):
        self.register_handler("osd_repop", self._h_repop)

    def _h_repop(self, src, payload):
        ops = list(payload["ops"])
        ops.append({"op": "noop"})
        payload = dict(payload)
        payload["ops"] = ops
        self.last[payload["oid"]] = payload
        return True

class Primary(OSDServer):
    def push(self, peer):
        self.cast(peer, "osd_repop", {"oid": "o", "ops": []})
'''
    assert _mal018(src) == []


def test_mal018_flags_a_sender_editing_what_it_posted():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_note", lambda src, p: p["n"])

    def poke(self, peers, ops):
        note = {"n": 1}
        for peer in peers:
            self.cast(peer, "mon_note", note)
        note["n"] += 1
        self.cast("mon0", "mon_note", {"n": 2, "ops": ops})
        ops.append("late")
'''
    found = _mal018(src)
    assert [line for line, _ in found] == [9, 11]
    assert "`note` was posted by cast('mon_note') on line" in found[0][1]
    assert "`ops` was posted" in found[1][1]


def test_mal018_passes_edits_before_the_send_or_after_a_rebind():
    src = '''\
class Monitor(Daemon):
    def setup(self):
        self.register_handler("mon_note", lambda src, p: p["n"])

    def poke(self, peer):
        note = {"n": 1}
        note["n"] += 1
        self.cast(peer, "mon_note", note)
        note = {"n": 3}
        note["n"] += 1
        self.cast(peer, "mon_note", note)
'''
    assert _mal018(src) == []


# ----------------------------------------------------------------------
# Waiver scoping (MAL008 across the lint/flow split)
# ----------------------------------------------------------------------
def test_lint_pass_does_not_judge_flow_waivers():
    # MAL013 is a flow code: the lint pass must leave its waiver
    # alone even though no lint finding matches the line.
    src = ("class C:\n"
           "    def f(self):\n"
           "        self.x = 1  "
           "# mal: disable=MAL013 -- judged by the flow pass\n")
    findings = Linter(default_rules()).lint_source(
        src, path="src/repro/fake/mod.py")
    assert findings == []


def test_flow_scoped_sweep_flags_unused_flow_waiver():
    lines = ["x = 1  # mal: disable=MAL013 -- stale"]
    sups = FileSuppressions(Path("src/repro/fake/mod.py"), lines,
                            report_hygiene=False)
    kept = sups.filter(Path("src/repro/fake/mod.py"), [],
                       active_codes={"MAL013"})
    assert kept == []
    assert any(f.code == "MAL008" and "unused" in f.message
               for f in sups.hygiene)


def test_unknown_code_is_malformed_in_every_pass():
    src = "x = 1  # mal: disable=MAL999 -- no such rule\n"
    findings = Linter(default_rules()).lint_source(
        src, path="src/repro/fake/mod.py")
    assert any(f.code == "MAL008" and "unknown" in f.message
               for f in findings)


def test_unused_sweep_covers_files_with_no_findings_at_all():
    # Regression: the sweep must not depend on the file producing any
    # rule finding first.
    src = "# mal: disable=MAL006 -- nothing here uses defaults\nx = 1\n"
    findings = Linter(default_rules()).lint_source(
        src, path="src/repro/fake/mod.py")
    assert any(f.code == "MAL008" and "unused" in f.message
               for f in findings)


# ----------------------------------------------------------------------
# CLI: waivers apply to flow findings; unused flow waivers surface
# ----------------------------------------------------------------------
def _run_flow(tmp_path, source):
    mod = tmp_path / "mod.py"
    mod.write_text(BASE + source)
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "flow",
         str(tmp_path), "--json"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})


def test_cli_flow_waiver_suppresses_finding(tmp_path):
    proc = _run_flow(tmp_path, '''\
class Monitor(Daemon):
    def poke(self, peer):
        self.cast(peer, "nope", {})  # mal: disable=MAL010 -- toy fixture
''')
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == 1
    assert proc.returncode == 0, proc.stdout
    assert doc["findings"] == []


def test_cli_flow_reports_unwaived_finding_and_unused_waiver(tmp_path):
    proc = _run_flow(tmp_path, '''\
class Monitor(Daemon):
    def poke(self, peer):
        self.cast(peer, "nope", {})

    def quiet(self):
        return 1  # mal: disable=MAL013 -- stale waiver
''')
    assert proc.returncode == 1
    found = {f["code"] for f in json.loads(proc.stdout)["findings"]}
    assert "MAL010" in found
    assert "MAL008" in found
