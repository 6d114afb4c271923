"""Negative test: ``copy.deepcopy`` is called only where a value changes hands.

The rule (DESIGN.md, "Value boundaries") is one deep copy per
hand-over: in at a setter, out at a getter, and none at the wire, which
moves a payload instead of copying it.  Containers of values are copied
shallowly, so a deep copy anywhere else is either redundant or hides an
in-place edit that should be a replacement.  This sweep makes a new
defensive copy a reviewed line in the table below rather than a habit:
it fails on a call site missing from the table *and* on a table entry
whose call is gone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``file::qualified function`` -> why this deep copy is the one copy.
ALLOWED = {
    "rados/objects.py::StoredObject.omap_set":
        "copy-in: the caller keeps no handle on the stored value",
    "rados/objects.py::StoredObject.xattr_set":
        "copy-in: the caller keeps no handle on the stored value",
    "rados/objects.py::StoredObject.omap_get":
        "copy-out: classes edit what they read (cls_lock)",
    "rados/objects.py::StoredObject.xattr_get":
        "copy-out: classes edit what they read (cls_lock)",
    "rados/objects.py::StoredObject.omap_list":
        "copy-out: same as omap_get, for a scan",
    "monitor/store.py::MonitorStore._kv_put":
        "copy-in before guards: a guard edits the copy, never the batch "
        "every monitor shares",
    "monitor/store.py::MonitorStore.kv_get":
        "copy-out: in-process callers (guards, tests) get a value",
    "monitor/store.py::MonitorStore.kv_list":
        "copy-out: same as kv_get, for a prefix scan",
    "mds/inode.py::Inode.to_dict":
        "embedded is live state that execute() edits in place",
    "mds/server.py::MDS._grant_payload":
        "resolved through a Future and posted on a later event, while "
        "execute() keeps editing embedded",
    "sim/failure.py::FailureInjector._chaos_plan":
        "a duplicated envelope must not alias the original delivery",
    "sim/failure.py::FailureInjector._mangle":
        "corruption edits a copy, never the sender's envelope",
    "analysis/sanitizers.py::PaxosSanitizer.on_learn":
        "the chosen-value record must not follow later edits by a "
        "monitor it is checking",
}


class _CopyCalls(ast.NodeVisitor):
    """Collect the qualified name of every function calling deepcopy."""

    def __init__(self):
        self.scope = []
        self.sites = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        func = node.func
        # copy.deepcopy(...) or a bare deepcopy(...) from an import-from.
        if ((isinstance(func, ast.Attribute) and func.attr == "deepcopy")
                or (isinstance(func, ast.Name) and func.id == "deepcopy")):
            self.sites.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def copy_sites(root: Path):
    sites = []
    for path in sorted(root.rglob("*.py")):
        visitor = _CopyCalls()
        visitor.visit(ast.parse(path.read_text()))
        sites.extend(f"{path.relative_to(root).as_posix()}::{name}"
                     for name in visitor.sites)
    return sites


def test_deepcopy_is_called_only_from_the_allow_list():
    sites = copy_sites(SRC)
    assert len(sites) == len(set(sites)), (
        f"one function deep-copies twice: {sorted(sites)}")
    unlisted = sorted(set(sites) - set(ALLOWED))
    assert not unlisted, (
        "copy.deepcopy outside the value boundaries (DESIGN.md); make "
        f"it a shallow copy or add it to ALLOWED with a reason: {unlisted}")
    stale = sorted(set(ALLOWED) - set(sites))
    assert not stale, f"ALLOWED names a copy that is gone: {stale}"


def test_sweep_flags_a_copy_outside_the_allow_list(tmp_path):
    (tmp_path / "rados").mkdir()
    (tmp_path / "rados" / "objects.py").write_text(
        "import copy\n"
        "from copy import deepcopy\n"
        "class StoredObject:\n"
        "    def omap_set(self, k, v):\n"
        "        self.omap[k] = copy.deepcopy(v)\n"
        "    def clone(self):\n"
        "        return deepcopy(self)\n")
    sites = copy_sites(tmp_path)
    assert sorted(set(sites) - set(ALLOWED)) == [
        "rados/objects.py::StoredObject.clone"]
