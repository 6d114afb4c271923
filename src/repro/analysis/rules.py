"""The MAL rule catalogue: determinism and protocol-shape lint rules.

Every rule guards one clause of the contracts in
``src/repro/sim/kernel.py`` (determinism) and ``src/repro/msg``
(message-passing isolation).  Codes are stable: tooling, suppressions,
and CHANGELOG entries refer to them, so codes are never reused.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.linter import FileContext, Finding, Rule

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_calls(root: ast.AST) -> Iterable[ast.Call]:
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            yield node


# ----------------------------------------------------------------------
# MAL001 — wall-clock use outside the kernel
# ----------------------------------------------------------------------
class WallClockRule(Rule):
    code = "MAL001"
    name = "wall-clock"
    description = ("Host wall-clock reads (time.*, datetime.now) outside "
                   "the simulation kernel break seeded replay; use "
                   "``sim.now``.")

    CLOCK_CALLS = {
        "time.time", "time.monotonic", "time.perf_counter",
        "time.process_time", "time.time_ns", "time.monotonic_ns",
        "time.perf_counter_ns", "time.process_time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "date.today", "datetime.date.today",
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.in_kernel:
            return
        for call in _walk_calls(ctx.tree):
            dn = dotted_name(call.func)
            if dn in self.CLOCK_CALLS:
                yield ctx.finding(
                    self, call,
                    f"wall-clock call {dn}() breaks deterministic "
                    "replay; use the simulated clock (sim.now)")


# ----------------------------------------------------------------------
# MAL002 — host RNG use outside the kernel
# ----------------------------------------------------------------------
class HostRandomRule(Rule):
    code = "MAL002"
    name = "host-random"
    description = ("Calls into the host ``random``/``numpy.random`` "
                   "modules bypass the seeded per-stream RNGs; use "
                   "``Simulator.rng(stream)``.")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.in_kernel:
            return
        for call in _walk_calls(ctx.tree):
            dn = dotted_name(call.func)
            if dn is None:
                continue
            head = dn.split(".")
            if head[0] == "random" and len(head) > 1:
                yield ctx.finding(
                    self, call,
                    f"host RNG call {dn}() is not derived from the "
                    "simulation seed; route through "
                    "Simulator.rng(stream)")
            elif (head[0] in ("numpy", "np") and len(head) > 2
                    and head[1] == "random"):
                yield ctx.finding(
                    self, call,
                    f"numpy RNG call {dn}() is not derived from the "
                    "simulation seed; seed an explicit Generator from "
                    "Simulator.rng(stream)")


# ----------------------------------------------------------------------
# MAL003 — bypassing the message layer
# ----------------------------------------------------------------------
class MessageLayerBypassRule(Rule):
    code = "MAL003"
    name = "message-layer-bypass"
    description = ("Daemons communicate only via call/cast envelopes; "
                   "direct ``.deliver()`` or reaching into another "
                   "daemon's dispatch internals bypasses latency, "
                   "tracing, and failure injection.")
    scope = "src"

    PRIVATE_INTERNALS = {"_handlers", "_pending", "_admin_commands",
                         "_trace_ctx"}

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.in_msg_layer:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "deliver"):
                    yield ctx.finding(
                        self, node,
                        "direct .deliver() bypasses the network's "
                        "latency model; send via call/cast")
            elif isinstance(node, ast.Attribute):
                if (node.attr in self.PRIVATE_INTERNALS
                        and not (isinstance(node.value, ast.Name)
                                 and node.value.id == "self")):
                    yield ctx.finding(
                        self, node,
                        f"access to another daemon's {node.attr} "
                        "bypasses the message layer")


# ----------------------------------------------------------------------
# MAL004 — overbroad exception handlers
# ----------------------------------------------------------------------
class BroadExceptRule(Rule):
    code = "MAL004"
    name = "broad-except"
    description = ("``except Exception`` (or bare ``except``) swallows "
                   "typed repro.errors failures; catch the specific "
                   "MalacologyError subclasses, or use "
                   "errors.sandbox_guard at sandbox boundaries.")

    BROAD = {"Exception", "BaseException"}

    def _broad_name(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return "<bare>"
        if isinstance(node, ast.Name) and node.id in self.BROAD:
            return node.id
        if isinstance(node, ast.Tuple):
            for elt in node.elts:
                hit = self._broad_name(elt)
                if hit and hit != "<bare>":
                    return hit
        return None

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            hit = self._broad_name(node.type)
            if hit == "<bare>":
                yield ctx.finding(
                    self, node,
                    "bare except swallows repro.errors types; catch "
                    "specific exceptions")
            elif hit:
                yield ctx.finding(
                    self, node,
                    f"except {hit} swallows repro.errors types; catch "
                    "specific MalacologyError subclasses")


# ----------------------------------------------------------------------
# MAL005 — unordered set iteration feeding scheduling decisions
# ----------------------------------------------------------------------
class UnorderedIterationRule(Rule):
    code = "MAL005"
    name = "unordered-iteration"
    description = ("Iterating a set while sending messages or "
                   "scheduling work makes the event order depend on "
                   "hash seeds; wrap the set in sorted().")

    SET_ANNOTATIONS = {"Set", "FrozenSet", "AbstractSet", "MutableSet",
                       "set", "frozenset"}
    SET_METHODS = {"intersection", "union", "difference",
                   "symmetric_difference"}
    EFFECTS = {"cast", "call", "spawn", "schedule", "send",
               "choice", "sample", "shuffle", "uniform", "randint"}

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node)

    def _check_scope(self, ctx: FileContext,
                     fn: ast.AST) -> Iterable[Finding]:
        set_names = self._collect_set_names(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.For):
                continue
            if not self._is_setlike(node.iter, set_names):
                continue
            if self._has_effects(node.body):
                yield ctx.finding(
                    self, node.iter,
                    "iteration over an unordered set drives "
                    "messages/scheduling; the event order then depends "
                    "on the hash seed — wrap in sorted()")

    # -- helpers -------------------------------------------------------
    def _collect_set_names(self, fn: ast.AST) -> Set[str]:
        names: Set[str] = set()
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if self._is_set_annotation(arg.annotation):
                    names.add(arg.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                if self._is_setlike(node.value, names):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            names.add(tgt.id)
            elif isinstance(node, ast.AnnAssign):
                if (isinstance(node.target, ast.Name)
                        and self._is_set_annotation(node.annotation)):
                    names.add(node.target.id)
        return names

    def _is_set_annotation(self, ann: Optional[ast.expr]) -> bool:
        if ann is None:
            return False
        if isinstance(ann, ast.Subscript):
            ann = ann.value
        if isinstance(ann, ast.Attribute):
            return ann.attr in self.SET_ANNOTATIONS
        return (isinstance(ann, ast.Name)
                and ann.id in self.SET_ANNOTATIONS)

    def _is_setlike(self, node: ast.expr, names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.SET_METHODS
                    and self._is_setlike(node.func.value, names)):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
            return (self._is_setlike(node.left, names)
                    or self._is_setlike(node.right, names))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            # ``a - b`` is set difference only if a side is provably
            # a set; plain numeric subtraction must not flag.
            return (self._is_setlike(node.left, names)
                    or self._is_setlike(node.right, names))
        return False

    def _has_effects(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for call in _walk_calls(stmt):
                func = call.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in self.EFFECTS):
                    return True
        return False


# ----------------------------------------------------------------------
# MAL006 — mutable default arguments
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    code = "MAL006"
    name = "mutable-default"
    description = ("A mutable default argument is shared across every "
                   "call — daemon state leaks between instances; "
                   "default to None.")

    MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                     "Counter", "deque"}

    def _is_mutable(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            dn = dotted_name(node.func)
            return bool(dn) and dn.split(".")[-1] in self.MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.finding(
                        self, default,
                        f"mutable default argument in {node.name}() is "
                        "shared across calls; use None and build "
                        "inside the body")


# ----------------------------------------------------------------------
# MAL007 — Envelope built without trace propagation
# ----------------------------------------------------------------------
class EnvelopeTraceRule(Rule):
    code = "MAL007"
    name = "envelope-trace"
    description = ("Envelopes constructed outside repro.msg must carry "
                   "trace= so causality survives the hop; prefer "
                   "Daemon.call/cast which stamp it automatically.")
    scope = "src"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.in_msg_layer:
            return
        for call in _walk_calls(ctx.tree):
            dn = dotted_name(call.func)
            if dn is None or dn.split(".")[-1] != "Envelope":
                continue
            if not any(kw.arg == "trace" for kw in call.keywords):
                yield ctx.finding(
                    self, call,
                    "Envelope constructed without trace=; the RPC "
                    "trace breaks at this hop — use Daemon.call/cast "
                    "or pass trace= explicitly")


def default_rules() -> List[Rule]:
    """The full MAL catalogue (MAL008 lives in the framework)."""
    return [
        WallClockRule(),
        HostRandomRule(),
        MessageLayerBypassRule(),
        BroadExceptRule(),
        UnorderedIterationRule(),
        MutableDefaultRule(),
        EnvelopeTraceRule(),
    ]
