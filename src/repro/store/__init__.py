"""repro.store: pluggable per-PG object-store backends.

See :mod:`repro.store.base` for the interface and determinism
contract.  Pools pick a backend (and optional cache tier) in their
pool config; :func:`make_store` is the single dispatch point the OSD
uses to build one store per PG.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.store.base import (BACKEND_PROFILES, ObjectStore,
                              normalize_backend, normalize_cache)
from repro.store.cachetier import CacheEntry, CacheTier
from repro.store.coldstore import ColdObject, ColdStore
from repro.store.faults import StoreFaultPlane
from repro.store.logstructured import LogRecord, LogStructuredStore
from repro.store.memstore import MemStore

__all__ = [
    "BACKEND_PROFILES",
    "CacheEntry",
    "CacheTier",
    "ColdObject",
    "ColdStore",
    "LogRecord",
    "LogStructuredStore",
    "MemStore",
    "ObjectStore",
    "StoreFaultPlane",
    "make_store",
    "normalize_backend",
    "normalize_cache",
]


def make_store(backend: Optional[Any] = None,
               cache: Optional[Dict[str, Any]] = None,
               perf: Optional[Any] = None) -> ObjectStore:
    """Build one PG's store from a pool's backend/cache declaration.

    ``backend``/``cache`` are the (already normalized) values from the
    OSD map's pool config; both default to None, which yields the
    plain :class:`MemStore` — the pre-refactor semantics.
    """
    cfg = normalize_backend(backend) if backend is not None else \
        {"profile": "memstore"}
    profile = cfg["profile"]
    if profile == "memstore":
        base: ObjectStore = MemStore(perf)
    elif profile == "logstructured":
        base = LogStructuredStore(perf)
    else:
        base = ColdStore(k=cfg.get("k", 2), m=cfg.get("m", 1), perf=perf)
    if cache is not None:
        ccfg = normalize_cache(cache)
        return CacheTier(base, capacity=ccfg["capacity"],
                         promote_reads=ccfg["promote_reads"], perf=perf)
    return base
