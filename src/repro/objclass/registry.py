"""Per-OSD registry of object interface classes.

Bundled classes model Ceph's compiled-in C++ classes; dynamic classes
arrive as source embedded in the OSD map (paper section 6.1.2) and can
be installed, upgraded, and removed at runtime — the core Data I/O
programmability claim.  Versions are compared so replayed or reordered
map deliveries never downgrade a class.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NotFound, PolicyError, sandbox_guard
from repro.objclass.context import MethodContext
from repro.objclass.loader import compile_class_source


class ClassRegistry:
    """Loaded classes for one daemon."""

    def __init__(self) -> None:
        self._classes: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def register_bundled(self, name: str,
                         methods: Dict[str, Callable[..., Any]],
                         category: str = "other") -> None:
        """Install a compiled-in class (available from daemon start)."""
        if name in self._classes:
            raise ValueError(f"class {name!r} already registered")
        self._classes[name] = {
            "version": 0,
            "methods": dict(methods),
            "category": category,
            "dynamic": False,
        }

    def install_dynamic(self, name: str, version: int, source: str,
                        category: str = "other") -> bool:
        """Compile and (re)install a dynamic class.

        Returns True if the class was (re)loaded, False if the existing
        version is already >= ``version`` (stale delivery).  Compilation
        errors raise :class:`PolicyError` and leave any previous version
        installed — a broken update never takes down a working one.
        """
        existing = self._classes.get(name)
        if existing is not None:
            if not existing["dynamic"]:
                raise PolicyError(
                    f"cannot shadow bundled class {name!r} dynamically")
            if existing["version"] >= version:
                return False
        methods = compile_class_source(name, source)
        self._classes[name] = {
            "version": version,
            "methods": methods,
            "category": category,
            "dynamic": True,
        }
        return True

    def remove_dynamic(self, name: str) -> None:
        entry = self._classes.get(name)
        if entry and entry["dynamic"]:
            del self._classes[name]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def has(self, name: str) -> bool:
        return name in self._classes

    def version_of(self, name: str) -> Optional[int]:
        entry = self._classes.get(name)
        return entry["version"] if entry else None

    def catalog(self) -> List[Tuple[str, str, int]]:
        """(class name, category, method count) rows — Table 1 material."""
        return sorted(
            (name, entry["category"], len(entry["methods"]))
            for name, entry in self._classes.items()
        )

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def call(self, name: str, method: str, ctx: MethodContext,
             args: Any) -> Any:
        entry = self._classes.get(name)
        if entry is None:
            raise NotFound(f"no object class {name!r}")
        fn = entry["methods"].get(method)
        if fn is None:
            raise NotFound(f"class {name!r} has no method {method!r}")
        # A bug inside dynamic code must not crash the OSD; the guard
        # passes intended MalacologyError signalling through and turns
        # everything else into a typed PolicyError.
        with sandbox_guard(f"class {name}.{method} raised"):
            return fn(ctx, args)
