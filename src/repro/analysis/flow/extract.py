"""Whole-program extraction: classes, handler tables, call/cast sites.

This is the interprocedural half of the analyzer.  It indexes every
class in the analyzed tree, resolves which concrete daemon *kind* each
one serves (``Monitor`` -> ``mon``, mixins -> every kind that inherits
them, helpers -> the kinds they are attached to), then walks every
function for:

* ``register_handler`` / ``register_admin_command`` calls — including
  the ``rh = self.register_handler`` aliasing idiom and registrations
  performed by helper functions on a daemon-typed parameter (Mantle's
  ``mds.register_admin_command``, ``install_telemetry_commands``);
* every ``call``/``cast`` site, with the destination expression
  resolved to a daemon kind via (in order) string-constant prefixes,
  local dataflow on the ``dst`` expression, identifier naming
  conventions, the ``peer`` same-kind idiom, and finally the handler
  registry (a method registered by exactly one kind pins its
  destination);
* dynamic-method RPC wrappers (``mon_request(method, ...)``): callers
  that pass a string constant become effective call sites at the
  caller's location;
* payload shapes — dict-literal keys at call sites vs. subscript /
  ``.get`` keys in handlers — and reply discipline (is the returned
  Future consumed? does the handler have a silent fall-through?);
* in-place edits of what crossed the wire: a handler editing its
  request payload, a sender editing a name it already posted.

Everything here is pure AST analysis: no imports of the analyzed
code, deterministic output (sorted everywhere), no hash-order
dependence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.astcache import SourceFile
from repro.analysis.flow.model import (
    ANY_KIND,
    CallSite,
    FlowGraph,
    Handler,
)

# ----------------------------------------------------------------------
# Naming conventions
# ----------------------------------------------------------------------

#: Ordered class-name patterns -> daemon kind.  First match wins;
#: checked on the lowercased class name, then up the base-class chain.
CLASS_KIND_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("changelog", "changelog"),
    ("auditpipeline", "changelog"),
    ("mgr", "mgr"),
    ("monitor", "mon"),
    ("mds", "mds"),
    ("osd", "osd"),
    ("client", "client"),
    ("admin", "client"),
)

#: String-constant daemon-name prefixes -> kind (``"mon2"`` -> mon).
NAME_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("changelog", "changelog"),
    ("mgr", "mgr"),
    ("mon", "mon"),
    ("mds", "mds"),
    ("osd", "osd"),
    ("client", "client"),
    ("admin", "client"),
)

#: Identifier tokens -> kind, for dst expressions and their
#: assignments (``acting[0]`` -> osd, ``self.leader`` -> mon, ...).
DST_NAME_HINTS: Tuple[Tuple[str, str], ...] = (
    ("changelog", "changelog"),
    ("writer", "changelog"),
    ("mgr", "mgr"),
    ("mon", "mon"),
    ("mons", "mon"),
    ("leader", "mon"),
    ("mds", "mds"),
    ("mdss", "mds"),
    ("rank_holder", "mds"),
    ("osd", "osd"),
    ("osds", "osd"),
    ("acting", "osd"),
    ("primary", "osd"),
    ("replica", "osd"),
    ("replicas", "osd"),
    ("client", "client"),
    ("clients", "client"),
)

#: Sanitizer planes and the hook-name prefixes that identify a call
#: into them (``san.caps.on_grant``, ``san.zlog.observe_ops``).
SANITIZER_PLANES = ("paxos", "caps", "zlog", "migration", "wire")

#: Member calls that edit a container in place (MAL018).  Subscript and
#: attribute stores, ``del`` and augmented assignment through a name
#: are edits too.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "update", "setdefault", "pop",
    "remove", "clear", "sort",
})

#: Directories whose files are the message/simulation machinery
#: itself: their generic ``self.call(dst, method)`` plumbing is not a
#: protocol site.
_MACHINERY_PARTS = ("msg", "sim")


# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------
def dotted_text(node: ast.AST) -> str:
    """Compact source text for an expression (best effort)."""
    try:
        return ast.unparse(node)
    except (ValueError, AttributeError):  # pragma: no cover
        return "<expr>"


def _tokens(text: str) -> List[str]:
    out: List[str] = []
    word = []
    for ch in text.lower():
        if ch.isalnum() or ch == "_":
            word.append(ch)
        else:
            if word:
                out.extend("".join(word).split("_"))
                word = []
    if word:
        out.extend("".join(word).split("_"))
    return [t.rstrip("0123456789") or t for t in out if t]


def _hint_kind(text: str) -> Optional[str]:
    toks = set(_tokens(text)) - {"self"}
    for token, kind in DST_NAME_HINTS:
        if token in toks:
            return kind
    return None


def _const_prefix_kind(value: str) -> Optional[str]:
    low = value.lower()
    for prefix, kind in NAME_PREFIXES:
        if low.startswith(prefix):
            return kind
    return None


def _str_head(node: ast.AST) -> Optional[str]:
    """Leading literal text of a str constant / f-string / .format."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"):
        return _str_head(node.func.value)
    return None


def _walk_shallow(node: ast.AST) -> Iterable[ast.AST]:
    """Walk without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _root_name(expr: ast.AST) -> Optional[str]:
    """The name an access path starts from: ``p`` in ``p["a"].get("b")``
    or ``(p or {})["a"]``; None when it starts anywhere else."""
    while True:
        if isinstance(expr, (ast.Subscript, ast.Attribute)):
            expr = expr.value
        elif isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr in ("get", "setdefault", "items",
                                       "values"):
            expr = expr.func.value
        elif isinstance(expr, ast.BoolOp):
            expr = expr.values[0]
        else:
            return expr.id if isinstance(expr, ast.Name) else None


def _posted_names(expr: Optional[ast.AST]) -> Set[str]:
    """Names a payload expression hands over by reference: the payload
    itself, or a value / element of a dict, list, tuple or set display."""
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, ast.Dict):
        children: Sequence[ast.AST] = expr.values
    elif isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        children = expr.elts
    else:
        return set()
    return {name for child in children for name in _posted_names(child)}


def _bindings(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """(name, value it is bound from) for each name ``node`` binds."""
    if isinstance(node, ast.Assign):
        out: List[Tuple[str, ast.AST]] = []
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                out.append((tgt.id, node.value))
            elif isinstance(tgt, (ast.Tuple, ast.List)):
                # ``a, b = p["a"], p["b"]`` pairs up; any other
                # unpacking binds every name from the whole value.
                value = node.value
                pairs = isinstance(value, (ast.Tuple, ast.List)) \
                    and len(value.elts) == len(tgt.elts)
                out.extend((elt.id, value.elts[i] if pairs else value)
                           for i, elt in enumerate(tgt.elts)
                           if isinstance(elt, ast.Name))
        return out
    if isinstance(node, (ast.AnnAssign, ast.NamedExpr)) \
            and isinstance(node.target, ast.Name) and node.value:
        return [(node.target.id, node.value)]
    if isinstance(node, ast.For):
        # An element of a payload container is part of the payload.
        return [(n.id, node.iter) for n in ast.walk(node.target)
                if isinstance(n, ast.Name)]
    return []


def _edited_roots(node: ast.AST) -> List[str]:
    """Names whose content ``node`` edits in place."""
    targets: List[ast.AST] = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATING_METHODS:
        return [r for r in (_root_name(node.func.value),) if r]
    flat: List[ast.AST] = []
    while targets:
        tgt = targets.pop()
        if isinstance(tgt, (ast.Tuple, ast.List)):
            targets.extend(tgt.elts)
        elif isinstance(tgt, ast.Starred):
            targets.append(tgt.value)
        elif isinstance(tgt, (ast.Subscript, ast.Attribute)):
            flat.append(tgt)
    return [r for r in map(_root_name, flat) if r]


def in_place_edits(fn: ast.AST, names: Set[str],
                   after_line: int = 0) -> List[Tuple[str, ast.AST]]:
    """(name, node) of every in-place edit through ``names`` in ``fn``.

    Statements are judged in source order from ``after_line`` on.  A
    name bound from one that counts (``x = p["k"]``, ``p.get("k")``, a
    loop over either) counts too; a name rebound to anything else stops
    counting.  Loops are not unrolled: an edit above a send in the same
    loop body is left to the runtime wire sanitizer.
    """
    live = set(names)
    out: List[Tuple[str, ast.AST]] = []
    nodes = sorted((n for n in _walk_shallow(fn)
                    if getattr(n, "lineno", 0) > after_line),
                   key=lambda n: (n.lineno, n.col_offset))
    for node in nodes:
        out.extend((root, node) for root in _edited_roots(node)
                   if root in live)
        for name, value in _bindings(node):
            if _root_name(value) in live:
                live.add(name)
            else:
                live.discard(name)
    return out


# ----------------------------------------------------------------------
# Control-flow: does a body terminate (return/raise) on every path?
# ----------------------------------------------------------------------
def _has_break(loop: ast.AST) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, ast.Break):
            return True
    return False


def body_terminates(body: Sequence[ast.stmt]) -> bool:
    return any(_stmt_terminates(s) for s in body)


def _stmt_terminates(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Return, ast.Raise)):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        fn = stmt.value.func
        if isinstance(fn, ast.Attribute) and fn.attr == "exit":
            return True
    if isinstance(stmt, ast.If):
        return bool(stmt.orelse) and body_terminates(stmt.body) \
            and body_terminates(stmt.orelse)
    if isinstance(stmt, ast.Try):
        if stmt.finalbody and body_terminates(stmt.finalbody):
            return True
        main = body_terminates(stmt.orelse) if stmt.orelse \
            else body_terminates(stmt.body)
        return main and all(body_terminates(h.body)
                            for h in stmt.handlers)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return body_terminates(stmt.body)
    if isinstance(stmt, ast.While):
        return (isinstance(stmt.test, ast.Constant)
                and bool(stmt.test.value) and not _has_break(stmt))
    return False


# ----------------------------------------------------------------------
# Class index
# ----------------------------------------------------------------------
@dataclass
class ClassInfo:
    name: str
    path: Path
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, ast.AST] = field(default_factory=dict)

    @property
    def in_machinery(self) -> bool:
        return any(p in self.path.parts for p in _MACHINERY_PARTS)


@dataclass
class Mutation:
    """One mutation of a protected attribute inside one function."""

    cls: str
    kinds: Tuple[str, ...]
    func: str
    attr_root: str              # e.g. "chosen" in self.chosen.learn(...)
    member: str                 # "learn", or "=" for attribute assigns
    path: str
    line: int
    #: Sanitizer planes this function calls into anywhere in its body.
    planes_in_func: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PayloadEdit:
    """An in-place edit of something that crossed the wire (MAL018)."""

    path: str
    line: int
    source: str                 # the editing statement or call
    name: str                   # the edited name
    #: "handler 'm' (Cls.func)" for a handler editing its request, or
    #: "cast('m') on line N" for a sender editing what it posted.
    owner: str
    by_handler: bool


@dataclass
class _Wrapper:
    """A method that forwards a ``method`` parameter into self.call."""

    cls: Optional[str]
    func: str
    method_param: str
    param_index: int            # positional index among non-self args
    payload_param: Optional[str]
    payload_index: Optional[int]
    inner_mode: str             # call | cast
    dst_kind: str
    dst_text: str
    resolution: str
    payload_keys: Tuple[str, ...]
    payload_exhaustive: Optional[bool]
    consumes_reply: bool
    has_timeout: bool


@dataclass
class Extraction:
    """Everything the rules and emitters need."""

    graph: FlowGraph
    files: List[SourceFile]
    mutations: List[Mutation] = field(default_factory=list)
    payload_edits: List[PayloadEdit] = field(default_factory=list)
    #: (path, line) of every dynamic-method call site that no wrapper
    #: caller resolved (excluded from MAL010, reported in the graph
    #: payload for auditability).
    dynamic_sites: List[Tuple[str, int, str]] = field(default_factory=list)


# ----------------------------------------------------------------------
# The extractor
# ----------------------------------------------------------------------
class Extractor:
    def __init__(self, files: Sequence[SourceFile]):
        self.files = [f for f in files if f.ok]
        self.classes: Dict[str, ClassInfo] = {}
        self.module_funcs: Dict[str, Tuple[ast.AST, Path]] = {}
        self.graph = FlowGraph()
        self.mutations: List[Mutation] = []
        self.payload_edits: Dict[Tuple[str, int], PayloadEdit] = {}
        self.dynamic_sites: List[Tuple[str, int, str]] = []
        self._wrappers: Dict[str, _Wrapper] = {}
        self._kinds_cache: Dict[str, Tuple[str, ...]] = {}
        #: Raw registrations deferred until kinds are known:
        #: (cls_name|None, fn, receiver_root, reg_kind, method, handler_expr,
        #:  path, line)
        self._registrations: List[Tuple] = []
        self._sites_raw: List[CallSite] = []

    # ------------------------------------------------------------------
    def run(self) -> Extraction:
        self._index()
        self._extract_all()
        self._resolve_registrations()
        self._resolve_wrapper_callers()
        self._finish_sites()
        self.graph.finish()
        return Extraction(graph=self.graph, files=self.files,
                          mutations=sorted(
                              self.mutations,
                              key=lambda m: (m.path, m.line)),
                          payload_edits=[e for _, e in sorted(
                              self.payload_edits.items())],
                          dynamic_sites=sorted(self.dynamic_sites))

    # ------------------------------------------------------------------
    # Pass 1: index classes and module functions
    # ------------------------------------------------------------------
    def _index(self) -> None:
        for sf in self.files:
            for node in sf.tree.body:
                if isinstance(node, ast.ClassDef):
                    info = ClassInfo(
                        name=node.name, path=sf.path, node=node,
                        bases=[dotted_text(b).split(".")[-1]
                               for b in node.bases])
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            info.methods[item.name] = item
                    # First definition wins on name collision; class
                    # names are unique in this tree.
                    self.classes.setdefault(node.name, info)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    self.module_funcs.setdefault(
                        node.name, (node, sf.path))

    def _ancestors(self, name: str) -> List[str]:
        out: List[str] = []
        seen: Set[str] = set()
        stack = [name]
        while stack:
            cur = stack.pop(0)
            info = self.classes.get(cur)
            if info is None:
                continue
            for base in info.bases:
                if base not in seen:
                    seen.add(base)
                    out.append(base)
                    stack.append(base)
        return out

    def _is_daemon(self, name: str) -> bool:
        return "Daemon" == name or "Daemon" in self._ancestors(name)

    def _kind_of_class(self, name: str) -> Optional[str]:
        """Kind of a concrete daemon class (by name, then bases)."""
        for candidate in [name, *self._ancestors(name)]:
            low = candidate.lower()
            for pattern, kind in CLASS_KIND_PATTERNS:
                if pattern in low:
                    return kind
        return None

    def kinds_of_class(self, name: Optional[str]) -> Tuple[str, ...]:
        """The daemon kinds a class's code runs as.

        Concrete daemon subclasses map to their own kind; mixins map to
        every kind whose daemon class inherits them; anything else
        (helper shims like ChangelogProducer) is ``*``.
        """
        if name is None:
            return (ANY_KIND,)
        cached = self._kinds_cache.get(name)
        if cached is not None:
            return cached
        kinds: Set[str] = set()
        if self._is_daemon(name) and name != "Daemon":
            kind = self._kind_of_class(name)
            if kind:
                kinds.add(kind)
        else:
            for cls_name in self.classes:
                if cls_name == name or not self._is_daemon(cls_name) \
                        or cls_name == "Daemon":
                    continue
                if name in self._ancestors(cls_name):
                    kind = self._kind_of_class(cls_name)
                    if kind:
                        kinds.add(kind)
        result = tuple(sorted(kinds)) or (ANY_KIND,)
        self._kinds_cache[name] = result
        return result

    def all_kinds(self) -> List[str]:
        kinds: Set[str] = set()
        for cls_name in self.classes:
            if self._is_daemon(cls_name) and cls_name != "Daemon":
                kind = self._kind_of_class(cls_name)
                if kind:
                    kinds.add(kind)
        return sorted(kinds)

    # ------------------------------------------------------------------
    # Pass 2: walk every function
    # ------------------------------------------------------------------
    def _extract_all(self) -> None:
        for sf in sorted(self.files, key=lambda f: str(f.path)):
            machinery = any(p in sf.path.parts
                            for p in _MACHINERY_PARTS)
            for node in sf.tree.body:
                if isinstance(node, ast.ClassDef):
                    info = self.classes[node.name]
                    for fn in info.methods.values():
                        self._extract_fn(fn, info.name, sf.path,
                                         machinery)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    self._extract_fn(node, None, sf.path, machinery)

    # -- registration + site extraction for one function ---------------
    def _extract_fn(self, fn: ast.AST, cls: Optional[str], path: Path,
                    machinery: bool) -> None:
        params = [a.arg for a in fn.args.args]
        # Aliases: name -> (receiver_root, "register_handler"/"..cmd")
        aliases: Dict[str, Tuple[str, str]] = {}
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Attribute) \
                    and node.value.attr in ("register_handler",
                                            "register_admin_command") \
                    and isinstance(node.value.value, ast.Name):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        aliases[tgt.id] = (node.value.value.id,
                                           node.value.attr)
        planes = self._planes_in(fn)
        parents = self._parent_map(fn)
        loads = self._name_loads(fn)
        for node in _walk_shallow(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # Registrations -------------------------------------------
            reg: Optional[Tuple[str, str]] = None
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("register_handler",
                                      "register_admin_command") \
                    and isinstance(func.value, ast.Name):
                reg = (func.value.id, func.attr)
            elif isinstance(func, ast.Name) and func.id in aliases:
                reg = aliases[func.id]
            if reg is not None and not machinery:
                receiver, reg_kind = reg
                if node.args and isinstance(node.args[0], ast.Constant) \
                        and isinstance(node.args[0].value, str):
                    handler_expr = node.args[1] \
                        if len(node.args) > 1 else None
                    self._registrations.append(
                        (cls, fn, receiver, reg_kind,
                         node.args[0].value, handler_expr, path,
                         node.lineno, params))
                continue
            # Call/cast sites -----------------------------------------
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("call", "cast") \
                    and self._self_rooted(func.value):
                if machinery:
                    continue
                self._extract_site(node, fn, cls, path, params,
                                   parents, loads)
        # Protected-state mutations (MAL017) ----------------------------
        if cls is not None:
            self._extract_mutations(fn, cls, path, planes)

    @staticmethod
    def _self_rooted(expr: ast.AST) -> bool:
        """self.call / self.daemon.call style receivers."""
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        return isinstance(expr, ast.Name) and expr.id == "self"

    # -- one call/cast site --------------------------------------------
    def _extract_site(self, node: ast.Call, fn: ast.AST,
                      cls: Optional[str], path: Path,
                      params: List[str], parents: Dict[int, ast.AST],
                      loads: Dict[str, int]) -> None:
        mode = node.func.attr
        args = node.args
        if len(args) < 2:
            return
        dst_expr, method_expr = args[0], args[1]
        payload_expr = args[2] if len(args) > 2 else None
        for kw in node.keywords:
            if kw.arg == "payload":
                payload_expr = kw.value
        has_timeout = len(args) > 3 or any(
            kw.arg == "timeout" for kw in node.keywords)
        consumes = self._consumes_reply(node, parents, loads) \
            if mode == "call" else False
        payload_keys, exhaustive = self._payload_shape(payload_expr, fn)
        fname = getattr(fn, "name", "<module>")
        method_text = _str_head(method_expr) or dotted_text(method_expr)
        self._record_edits(fn, _posted_names(payload_expr), path,
                           node.end_lineno,
                           f"{mode}('{method_text}') on line {node.lineno}",
                           by_handler=False)
        if isinstance(method_expr, ast.Constant) \
                and isinstance(method_expr.value, str):
            dst_kind, resolution = self._resolve_dst(
                dst_expr, fn, cls)
            self._sites_raw.append(CallSite(
                src_kinds=(), src_cls=cls or "<module>", mode=mode,
                method=method_expr.value,
                dst_text=dotted_text(dst_expr), dst_kind=dst_kind,
                resolution=resolution, path=str(path),
                line=node.lineno, via="direct",
                payload_keys=payload_keys,
                payload_exhaustive=exhaustive,
                consumes_reply=consumes, has_timeout=has_timeout))
        elif isinstance(method_expr, ast.Name) \
                and method_expr.id in params:
            # Dynamic method forwarded from a parameter: this function
            # is an RPC wrapper; its constant-method callers become the
            # effective sites.
            non_self = [p for p in params if p != "self"]
            payload_param = None
            payload_index = None
            if isinstance(payload_expr, ast.Name) \
                    and payload_expr.id in non_self:
                payload_param = payload_expr.id
                payload_index = non_self.index(payload_expr.id)
            dst_kind, resolution = self._resolve_dst(dst_expr, fn, cls)
            self._wrappers[fname] = _Wrapper(
                cls=cls, func=fname, method_param=method_expr.id,
                param_index=non_self.index(method_expr.id),
                payload_param=payload_param,
                payload_index=payload_index,
                inner_mode=mode, dst_kind=dst_kind,
                dst_text=dotted_text(dst_expr), resolution=resolution,
                payload_keys=payload_keys,
                payload_exhaustive=exhaustive,
                consumes_reply=consumes, has_timeout=has_timeout)
        else:
            self.dynamic_sites.append(
                (str(path), node.lineno, dotted_text(method_expr)))

    # -- reply consumption ---------------------------------------------
    @staticmethod
    def _parent_map(fn: ast.AST) -> Dict[int, ast.AST]:
        parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(fn):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        return parents

    @staticmethod
    def _name_loads(fn: ast.AST) -> Dict[str, int]:
        loads: Dict[str, int] = {}
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                loads[node.id] = loads.get(node.id, 0) + 1
        return loads

    def _consumes_reply(self, call: ast.Call,
                        parents: Dict[int, ast.AST],
                        loads: Dict[str, int]) -> bool:
        parent = parents.get(id(call))
        if isinstance(parent, ast.Expr):
            return False          # bare statement: Future discarded
        if isinstance(parent, ast.Assign):
            targets = parent.targets
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                # Consumed iff the bound name is ever read again.
                return loads.get(targets[0].id, 0) > 0
            return True
        return True               # yielded / returned / nested expr

    # -- payload shapes ------------------------------------------------
    def _payload_shape(self, expr: Optional[ast.AST], fn: ast.AST,
                       ) -> Tuple[Tuple[str, ...], Optional[bool]]:
        if expr is None or (isinstance(expr, ast.Constant)
                            and expr.value is None):
            return (), True
        if isinstance(expr, ast.Dict):
            return self._dict_keys(expr)
        if isinstance(expr, ast.Name):
            assigns = [n for n in _walk_shallow(fn)
                       if isinstance(n, ast.Assign)
                       and any(isinstance(t, ast.Name)
                               and t.id == expr.id
                               for t in n.targets)]
            if len(assigns) == 1 and isinstance(assigns[0].value,
                                                ast.Dict):
                keys, exhaustive = self._dict_keys(assigns[0].value)
                # A later name.update(...) / name[var] = ... opens the
                # key set back up.
                for n in _walk_shallow(fn):
                    if isinstance(n, ast.Call) \
                            and isinstance(n.func, ast.Attribute) \
                            and n.func.attr == "update" \
                            and isinstance(n.func.value, ast.Name) \
                            and n.func.value.id == expr.id:
                        exhaustive = False
                    if isinstance(n, ast.Subscript) \
                            and isinstance(n.value, ast.Name) \
                            and n.value.id == expr.id \
                            and isinstance(n.ctx, ast.Store):
                        exhaustive = False
                        if isinstance(n.slice, ast.Constant) \
                                and isinstance(n.slice.value, str):
                            keys = tuple(sorted({*keys,
                                                 n.slice.value}))
                return keys, exhaustive
        return (), None

    @staticmethod
    def _dict_keys(node: ast.Dict,
                   ) -> Tuple[Tuple[str, ...], Optional[bool]]:
        keys: List[str] = []
        exhaustive = True
        for key in node.keys:
            if isinstance(key, ast.Constant) \
                    and isinstance(key.value, str):
                keys.append(key.value)
            else:
                exhaustive = False  # **spread or computed key
        return tuple(sorted(keys)), exhaustive

    # -- destination resolution ----------------------------------------
    def _resolve_dst(self, dst: ast.AST, fn: ast.AST,
                     cls: Optional[str]) -> Tuple[str, str]:
        head = _str_head(dst)
        if head is not None:
            kind = _const_prefix_kind(head)
            if kind:
                return kind, "const"
        text = dotted_text(dst)
        # Local dataflow: one assignment to the dst name in this fn.
        if isinstance(dst, ast.Name):
            rhs_texts: List[str] = []
            for node in _walk_shallow(fn):
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == dst.id
                        for t in node.targets):
                    rhs_texts.append(dotted_text(node.value))
                    rhs_head = _str_head(node.value)
                    if rhs_head is not None:
                        kind = _const_prefix_kind(rhs_head)
                        if kind:
                            return kind, "dataflow"
                elif isinstance(node, (ast.For, ast.comprehension)) \
                        and isinstance(getattr(node, "target", None),
                                       ast.Name) \
                        and node.target.id == dst.id:
                    rhs_texts.append(dotted_text(node.iter))
            for rhs in rhs_texts:
                kind = _hint_kind(rhs)
                if kind:
                    return kind, "dataflow"
        # Identifier naming conventions on the expression itself.
        kind = _hint_kind(text)
        if kind:
            return kind, "name-hint"
        # ``peer`` means same-kind traffic.
        if "peer" in _tokens(text) and cls is not None:
            kinds = self.kinds_of_class(cls)
            if len(kinds) == 1 and kinds[0] != ANY_KIND:
                return kinds[0], "peer"
        return ANY_KIND, "unresolved"

    # ------------------------------------------------------------------
    # Pass 3: registrations -> handler tables
    # ------------------------------------------------------------------
    def _resolve_registrations(self) -> None:
        all_kinds = self.all_kinds()
        for (cls, fn, receiver, reg_kind, method, handler_expr, path,
             line, params) in self._registrations:
            helper = False
            if receiver == "self" and cls is not None:
                kinds = self.kinds_of_class(cls)
            elif receiver in params:
                kinds = self._kinds_of_param(fn, receiver, all_kinds)
                helper = True
            else:
                kinds = (ANY_KIND,)
            if kinds == (ANY_KIND,):
                kinds = tuple(all_kinds)
            analysis = self._analyze_handler(handler_expr, cls)
            fn_def, fn_path = self._handler_fn(handler_expr, cls) \
                or (handler_expr, path)
            if isinstance(fn_def, (ast.FunctionDef, ast.Lambda)) \
                    and fn_def.args.args:
                self._record_edits(
                    fn_def, {fn_def.args.args[-1].arg}, fn_path, 0,
                    f"handler '{method}' ({cls or '<module>'}."
                    f"{analysis['func']})", by_handler=True)
            via = "admin" if reg_kind == "register_admin_command" \
                else "handler"
            if helper:
                via += "+helper"
            for kind in kinds:
                node = self.graph.kind(kind)
                if cls is not None:
                    node.classes.append(cls)
                if reg_kind == "register_admin_command":
                    node.admin_commands.append(method)
                if method not in node.handlers:
                    node.handlers[method] = Handler(
                        kind=kind, method=method,
                        cls=cls or "<module>",
                        func=analysis["func"], path=str(path),
                        line=line, via=via,
                        returns_value=analysis["returns_value"],
                        falls_through=analysis["falls_through"],
                        is_generator=analysis["is_generator"],
                        payload_keys=analysis["payload_keys"],
                        payload_optional_keys=analysis["optional_keys"],
                        payload_wholesale=analysis["wholesale"])
        # Every concrete daemon class contributes its name to its kind
        # node even if all its handlers came from mixins.
        for cls_name in sorted(self.classes):
            if self._is_daemon(cls_name) and cls_name != "Daemon" \
                    and not self.classes[cls_name].in_machinery:
                kind = self._kind_of_class(cls_name)
                if kind and kind in self.graph.kinds:
                    self.graph.kinds[kind].classes.append(cls_name)

    def _record_edits(self, fn: ast.AST, names: Set[str], path: Path,
                      after_line: int, owner: str,
                      by_handler: bool) -> None:
        for name, node in in_place_edits(fn, names, after_line):
            key = (str(path), node.lineno)
            if key in self.payload_edits:
                continue          # a mixin handler registers per kind
            self.payload_edits[key] = PayloadEdit(
                path=str(path), line=node.lineno,
                source=dotted_text(node).splitlines()[0], name=name,
                owner=owner, by_handler=by_handler)

    def _kinds_of_param(self, fn: ast.AST, param: str,
                        all_kinds: List[str]) -> Tuple[str, ...]:
        """Kinds a helper's daemon-parameter can be at runtime."""
        for arg in fn.args.args:
            if arg.arg == param and arg.annotation is not None:
                ann = dotted_text(arg.annotation).split(".")[-1]
                if ann in self.classes:
                    kinds = self.kinds_of_class(ann)
                    if kinds != (ANY_KIND,):
                        return kinds
                if ann == "Daemon":
                    return tuple(all_kinds)
        hinted = _hint_kind(param)
        if hinted:
            return (hinted,)
        return (ANY_KIND,)        # "daemon"/unknown -> every kind

    # -- handler body analysis -----------------------------------------
    def _analyze_handler(self, expr: Optional[ast.AST],
                         cls: Optional[str]) -> Dict:
        out = {"func": "<unknown>", "returns_value": False,
               "falls_through": False, "is_generator": False,
               "payload_keys": (), "optional_keys": (),
               "wholesale": False}
        found = self._handler_fn(expr, cls)
        if found is None:
            if isinstance(expr, ast.Lambda):
                out["func"] = "<lambda>"
                body = expr.body
                out["returns_value"] = not (
                    isinstance(body, ast.Constant)
                    and body.value is None)
                payload = expr.args.args[-1].arg \
                    if expr.args.args else None
                if payload:
                    req, opt, wholesale = self._payload_reads(
                        expr, payload)
                    out["payload_keys"] = req
                    out["optional_keys"] = opt
                    out["wholesale"] = wholesale
            return out
        fn = found[0]
        out["func"] = fn.name
        out["is_generator"] = any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for n in _walk_shallow(fn))
        returns_value = False
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Return) and node.value is not None \
                    and not (isinstance(node.value, ast.Constant)
                             and node.value.value is None):
                returns_value = True
        out["returns_value"] = returns_value
        out["falls_through"] = not body_terminates(fn.body)
        args = fn.args.args
        if args:
            payload = args[-1].arg
            req, opt, wholesale = self._payload_reads(fn, payload)
            out["payload_keys"] = req
            out["optional_keys"] = opt
            out["wholesale"] = wholesale
        return out

    def _handler_fn(self, expr: Optional[ast.AST], cls: Optional[str],
                    ) -> Optional[Tuple[ast.AST, Path]]:
        """The handler's definition and the file it is in."""
        if expr is None:
            return None
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and cls is not None:
            for candidate in [cls, *self._ancestors(cls)]:
                info = self.classes.get(candidate)
                if info and expr.attr in info.methods:
                    return info.methods[expr.attr], info.path
        if isinstance(expr, ast.Name):
            return self.module_funcs.get(expr.id)
        return None

    @staticmethod
    def _payload_reads(fn: ast.AST, param: str,
                       ) -> Tuple[Tuple[str, ...], Tuple[str, ...], bool]:
        """(required keys, optional keys, escapes wholesale?).

        ``payload["k"]`` is a hard requirement on call sites;
        ``payload.get("k")`` merely marks the key as read.  A payload
        that escapes whole (passed on, iterated, returned) has an
        open-ended key set.
        """
        required: Set[str] = set()
        optional: Set[str] = set()

        def is_base(expr: ast.AST) -> bool:
            # ``payload`` or the ``(payload or {})`` defaulting idiom.
            if isinstance(expr, ast.Name) and expr.id == param:
                return True
            return isinstance(expr, ast.BoolOp) and any(
                isinstance(v, ast.Name) and v.id == param
                for v in expr.values)

        for node in _walk_shallow(fn):
            if isinstance(node, ast.Subscript) \
                    and is_base(node.value) \
                    and isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, str):
                required.add(node.slice.value)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" \
                    and is_base(node.func.value) \
                    and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                optional.add(node.args[0].value)
        wholesale = Extractor._escapes_whole(fn, param)
        return tuple(sorted(required)), tuple(sorted(optional)), wholesale

    @staticmethod
    def _escapes_whole(fn: ast.AST, param: str) -> bool:
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Call):
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id == param:
                        return True
                for kw in node.keywords:
                    if isinstance(kw.value, ast.Name) \
                            and kw.value.id == param:
                        return True
            elif isinstance(node, (ast.For,)) \
                    and isinstance(node.iter, ast.Name) \
                    and node.iter.id == param:
                return True
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == param:
                return True
            elif isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == param:
                return True
        return False

    # ------------------------------------------------------------------
    # Pass 4: wrapper callers -> effective sites
    # ------------------------------------------------------------------
    def _resolve_wrapper_callers(self) -> None:
        if not self._wrappers:
            return
        for sf in sorted(self.files, key=lambda f: str(f.path)):
            if any(p in sf.path.parts for p in _MACHINERY_PARTS):
                continue
            for node in sf.tree.body:
                if isinstance(node, ast.ClassDef):
                    for fn in self.classes[node.name].methods.values():
                        self._wrapper_sites_in(fn, node.name, sf.path)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    self._wrapper_sites_in(fn=node, cls=None,
                                           path=sf.path)

    def _wrapper_sites_in(self, fn: ast.AST, cls: Optional[str],
                          path: Path) -> None:
        for node in _walk_shallow(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and self._self_rooted(func.value)
                    and func.attr in self._wrappers):
                continue
            w = self._wrappers[func.attr]
            if w.param_index >= len(node.args):
                continue
            method_arg = node.args[w.param_index]
            if not (isinstance(method_arg, ast.Constant)
                    and isinstance(method_arg.value, str)):
                self.dynamic_sites.append(
                    (str(path), node.lineno,
                     f"{func.attr}({dotted_text(method_arg)})"))
                continue
            payload_keys, exhaustive = w.payload_keys, \
                w.payload_exhaustive
            if w.payload_index is not None \
                    and w.payload_index < len(node.args):
                payload_keys, exhaustive = self._payload_shape(
                    node.args[w.payload_index], fn)
            self._sites_raw.append(CallSite(
                src_kinds=(), src_cls=cls or "<module>",
                mode=w.inner_mode, method=method_arg.value,
                dst_text=w.dst_text, dst_kind=w.dst_kind,
                resolution=w.resolution, path=str(path),
                line=node.lineno, via=f"wrapper:{w.func}",
                payload_keys=payload_keys,
                payload_exhaustive=exhaustive,
                consumes_reply=w.consumes_reply,
                has_timeout=w.has_timeout))

    # ------------------------------------------------------------------
    # Pass 5: finish sites (src kinds + registry fallback)
    # ------------------------------------------------------------------
    def _finish_sites(self) -> None:
        for site in self._sites_raw:
            src_kinds = self.kinds_of_class(
                site.src_cls if site.src_cls != "<module>" else None)
            dst_kind, resolution = site.dst_kind, site.resolution
            if dst_kind == ANY_KIND:
                registered = self.graph.registered_kinds(site.method)
                if len(registered) == 1:
                    dst_kind, resolution = registered[0], "registry"
            self.graph.sites.append(CallSite(
                src_kinds=src_kinds, src_cls=site.src_cls,
                mode=site.mode, method=site.method,
                dst_text=site.dst_text, dst_kind=dst_kind,
                resolution=resolution, path=site.path, line=site.line,
                via=site.via, payload_keys=site.payload_keys,
                payload_exhaustive=site.payload_exhaustive,
                consumes_reply=site.consumes_reply,
                has_timeout=site.has_timeout))

    # ------------------------------------------------------------------
    # MAL017 support: sanitizer planes and protected mutations
    # ------------------------------------------------------------------
    @staticmethod
    def _planes_in(fn: ast.AST) -> Tuple[str, ...]:
        planes: Set[str] = set()
        for node in _walk_shallow(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            hook = func.attr
            if not (hook.startswith("on_")
                    or hook.startswith("observe")):
                continue
            base = func.value
            if isinstance(base, ast.Attribute) \
                    and base.attr in SANITIZER_PLANES:
                planes.add(base.attr)
        return tuple(sorted(planes))

    def _extract_mutations(self, fn: ast.AST, cls: str, path: Path,
                           planes: Tuple[str, ...]) -> None:
        kinds = self.kinds_of_class(cls)
        fname = getattr(fn, "name", "<module>")
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Attribute) \
                    and isinstance(node.func.value.value, ast.Name) \
                    and node.func.value.value.id == "self":
                self.mutations.append(Mutation(
                    cls=cls, kinds=kinds, func=fname,
                    attr_root=node.func.value.attr,
                    member=node.func.attr, path=str(path),
                    line=node.lineno, planes_in_func=planes))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets \
                    if isinstance(node, ast.Assign) else [node.target]
                for tgt in targets:
                    root = tgt
                    while isinstance(root, (ast.Attribute,
                                            ast.Subscript)):
                        root = root.value
                    if isinstance(tgt, (ast.Attribute, ast.Subscript)) \
                            and isinstance(tgt.value, ast.Attribute) \
                            and isinstance(tgt.value.value, ast.Name) \
                            and tgt.value.value.id == "self":
                        self.mutations.append(Mutation(
                            cls=cls, kinds=kinds, func=fname,
                            attr_root=tgt.value.attr, member="=",
                            path=str(path), line=node.lineno,
                            planes_in_func=planes))


def extract(files: Sequence[SourceFile]) -> Extraction:
    """Run the whole-program extraction over parsed files."""
    return Extractor(files).run()
