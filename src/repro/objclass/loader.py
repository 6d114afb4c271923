"""Restricted compilation of dynamic object-class source.

The paper embeds a Lua VM in the OSD; the reproduction embeds a
restricted Python namespace.  What matters for programmability is
preserved: class source is a *string* that travels through the monitor
map, compiles inside a running daemon without restart, runs against the
sandboxed method context only, and compilation or runtime faults are
contained (surfacing as :class:`PolicyError`, never crashing the OSD —
"certain types of coding mistakes can be handled gracefully",
section 4.2).

Source convention::

    def my_method(ctx, args):
        ctx.omap_set("counter", ctx.xattr_get("base", 0) + args["n"])
        return {"ok": True}

    METHODS = {"my_method": my_method}

Every callable in the module-level ``METHODS`` dict becomes an RPC-able
class method.  The namespace offers a curated builtin set; imports,
file, and attribute escapes are unavailable.
"""

from __future__ import annotations

import functools
from types import CodeType
from typing import Any, Callable, Dict

from repro import errors
from repro.errors import PolicyError, sandbox_guard

#: Builtins available to dynamic class / policy code.  Deliberately has
#: no ``__import__``, ``open``, ``eval``, ``exec``, ``getattr``, or
#: ``type`` — the sandbox is for containing mistakes, matching the
#: paper's threat model ("does not prevent deployment of malicious
#: code" but handles coding errors gracefully).
SAFE_BUILTINS: Dict[str, Any] = {
    "abs": abs, "all": all, "any": any, "bool": bool, "bytes": bytes,
    "dict": dict, "divmod": divmod, "enumerate": enumerate,
    "filter": filter, "float": float, "format": format,
    "frozenset": frozenset, "int": int, "isinstance": isinstance,
    "len": len, "list": list, "map": map, "max": max, "min": min,
    "next": next, "pow": pow, "range": range, "repr": repr,
    "reversed": reversed, "round": round, "set": set, "sorted": sorted,
    "str": str, "sum": sum, "tuple": tuple, "zip": zip,
    # Exceptions class code may raise/catch.
    "Exception": Exception, "ValueError": ValueError,
    "KeyError": KeyError, "IndexError": IndexError,
    "TypeError": TypeError, "StopIteration": StopIteration,
    "True": True, "False": False, "None": None,
}

#: Storage-stack errors the sandbox may raise to signal outcomes; these
#: cross the wire with their codes (ENOENT, EEXIST, ESTALE, ...).
SANDBOX_ERRORS = {
    name: getattr(errors, name)
    for name in ("MalacologyError", "NotFound", "AlreadyExists",
                 "NotPermitted", "InvalidArgument", "StaleEpoch",
                 "ReadOnly")
}


def compile_class_source(name: str,
                         source: str) -> Dict[str, Callable[..., Any]]:
    """Compile class source, returning its method table.

    Raises :class:`PolicyError` on syntax errors, missing/invalid
    ``METHODS``, or any exception escaping module execution.
    """
    namespace = _exec_sandboxed(f"class {name!r}", f"<objclass:{name}>",
                                "failed during load", source, {})
    methods = namespace.get("METHODS")
    if not isinstance(methods, dict) or not methods:
        raise PolicyError(
            f"class {name!r} must define a non-empty METHODS dict")
    for mname, fn in methods.items():
        if not callable(fn):
            raise PolicyError(
                f"class {name!r} method {mname!r} is not callable")
    return dict(methods)


def compile_policy_source(name: str, source: str,
                          extra_env: Dict[str, Any]) -> Dict[str, Any]:
    """Compile arbitrary sandboxed policy code (Mantle balancers).

    Unlike object classes, a policy exposes whatever names the caller's
    convention requires; the caller inspects the returned namespace.
    ``extra_env`` injects the Mantle API (``mds`` table, ``whoami``,
    ``targets``, ...) before execution.
    """
    return _exec_sandboxed(f"policy {name!r}", f"<policy:{name}>",
                           "failed to run", source, extra_env)


def _exec_sandboxed(label: str, filename: str, run_failure: str,
                    source: str,
                    extra_env: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``source`` in a fresh sandboxed namespace; returns it."""
    namespace: Dict[str, Any] = {"__builtins__": dict(SAFE_BUILTINS)}
    namespace.update(SANDBOX_ERRORS)
    namespace.update(extra_env)
    try:
        code = _compiled(source, filename)
    except SyntaxError as exc:
        raise PolicyError(f"{label} failed to compile: {exc}") from exc
    with sandbox_guard(f"{label} {run_failure}"):
        exec(code, namespace)  # noqa: S102 - sandboxed namespace
    return namespace


@functools.lru_cache(maxsize=256)
def _compiled(source: str, filename: str) -> CodeType:
    """The code object of ``source``, compiled once per (source, file).

    One interface version reaches every OSD with the same source, so
    a cluster compiles it once, not once per daemon (``re`` caches its
    patterns the same way).  Sharing is safe because a code object is
    immutable: each install still ``exec``s it into a fresh namespace,
    so every registry gets its own functions and module globals.  A
    ``SyntaxError`` propagates and is not cached, so a broken source
    fails on every install.
    """
    return compile(source, filename=filename, mode="exec")
