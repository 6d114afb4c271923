"""The ObjectStore interface: pluggable per-PG storage backends.

Malacology's thesis is that storage services should be programmable
and recomposable; this module applies it to the OSD's own persistence
layer.  Before it existed, every PG stored its objects in one implicit
``Dict[str, StoredObject]`` — every pool got identical storage
semantics.  Now a pool declares a *backend profile* (and optionally a
write-back cache tier) in its pool config, and the OSD routes all PG
state through this interface:

* :class:`~repro.store.memstore.MemStore` — the fast tier; a plain
  in-memory map with the pre-refactor semantics.  The default, and
  pinned to produce byte-identical schedules to the old dict.
* :class:`~repro.store.logstructured.LogStructuredStore` — append-only
  segments plus an object index, with deterministic compaction driven
  by sim-time ticks; optimized for ZLog/changelog append streams.
* :class:`~repro.store.coldstore.ColdStore` — locally erasure-coded
  capacity tier (``rados/erasure.py`` codec); writes stage cheaply and
  whole batches encode in one call on flush, reads of flushed objects
  pay a reconstruction cost.
* :class:`~repro.store.cachetier.CacheTier` — a write-back cache
  wrapped around any base store: deterministic clock-LRU, read-promote
  thresholds, dirty write-back on a jitter-free flusher tick.

Two access planes
-----------------
The client I/O path uses :meth:`ObjectStore.fetch` / :meth:`commit` /
:meth:`discard`, which return a **modeled service delay** in simulated
seconds alongside their effect; the OSD sleeps that long before
acking, which is what gives the storage-tier ablation benchmark real
asymmetry.  MemStore charges exactly ``0.0`` everywhere, so default
pools add no events and the pre-refactor schedule is preserved
byte-for-byte (pinned by a tape test).

Recovery, rebalance, PG splitting, scrub, and tests use the plain
``MutableMapping`` plane (``store[oid]``, ``store.get``, ``.items()``,
``in``, ``len``) which never charges a delay — background repair
traffic is paced by the network, not by the medium model.

Determinism contract: no RNG, no wall clock; any internal iteration
that can influence behavior walks keys in sorted order; maintenance
runs only from the OSD's jitter-free store ticker.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidArgument
from repro.rados.objects import StoredObject

#: Known backend profile names (the dispatch table lives in
#: ``repro.store.__init__`` to avoid circular imports).
BACKEND_PROFILES = ("memstore", "logstructured", "coldstore")


class ObjectStore(MutableMapping):
    """One PG's object storage: oid -> :class:`StoredObject`.

    Subclasses implement the five ``MutableMapping`` primitives plus
    the costed client-op plane and maintenance hooks.  ``perf`` is the
    owning daemon's counter registry (or None outside a daemon); all
    backend counters land there under a ``store.<profile>.`` prefix so
    the mgr scrape and Prometheus export pick them up for free.
    """

    __slots__ = ("perf",)

    #: Stable profile name ("memstore", "logstructured", ...).
    profile = "base"
    #: True when the backend wants periodic :meth:`maintenance` ticks
    #: (compaction, write-back).  The OSD only starts its store ticker
    #: when it hosts at least one such store — pure-memstore clusters
    #: schedule zero extra events.
    needs_maintenance = False

    def __init__(self, perf: Optional[Any] = None):
        self.perf = perf

    # -- counter helper -------------------------------------------------
    def incr(self, name: str, amount: float = 1.0) -> None:
        if self.perf is not None:
            self.perf.incr(f"store.{self.profile}.{name}", amount)

    # ------------------------------------------------------------------
    # Client-op plane (modeled service delays)
    # ------------------------------------------------------------------
    def fetch(self, oid: str) -> Tuple[Optional[StoredObject], float]:
        """Materialize ``oid`` for a client op: (object or None, delay)."""
        return self.get(oid), 0.0

    def commit(self, obj: StoredObject) -> float:
        """Persist a mutated object; returns the modeled write delay."""
        self[obj.oid] = obj
        return 0.0

    def discard(self, oid: str) -> float:
        """Remove via a client op; returns the modeled delay."""
        self.pop(oid, None)
        return 0.0

    # ------------------------------------------------------------------
    # Maintenance plane (driven by the OSD's jitter-free store ticker)
    # ------------------------------------------------------------------
    def maintenance(self, now: float) -> None:
        """One background tick: compaction / write-back as needed."""

    def flush(self, now: float) -> None:
        """Force all pending background work to completion."""
        self.maintenance(now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """JSON-safe summary for the ``store.status`` admin command."""
        return {
            "profile": self.profile,
            "objects": len(self),
            "bytes": sum(obj.size for _, obj in sorted(self.items())),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} objects)"


def normalize_backend(backend: Any) -> Dict[str, Any]:
    """Validate/normalize a pool's backend declaration to a dict.

    Accepts a profile name (``"logstructured"``) or a dict
    (``{"profile": "coldstore", "k": 2, "m": 1}``); returns the dict
    form stored in the OSD map's pool config.  Raises
    :class:`InvalidArgument` on unknown profiles or bad parameters.
    """
    if isinstance(backend, str):
        backend = {"profile": backend}
    if not isinstance(backend, dict):
        raise InvalidArgument(f"bad backend declaration {backend!r}")
    profile = backend.get("profile")
    if profile not in BACKEND_PROFILES:
        raise InvalidArgument(
            f"unknown backend profile {profile!r} "
            f"(expected one of {', '.join(BACKEND_PROFILES)})")
    out: Dict[str, Any] = {"profile": profile}
    if profile == "coldstore":
        k = int(backend.get("k", 2))
        m = int(backend.get("m", 1))
        if k < 1 or m < 1 or k + m > 255:
            raise InvalidArgument(f"bad coldstore EC profile k={k} m={m}")
        out["k"] = k
        out["m"] = m
    return out


def normalize_cache(cache: Any) -> Dict[str, Any]:
    """Validate/normalize a pool's cache-tier declaration.

    ``{"capacity": <objects>, "promote_reads": <n>}`` — capacity is the
    fast tier's object budget, promote_reads the number of base-tier
    reads of one object before it is promoted into the cache.
    """
    if not isinstance(cache, dict):
        raise InvalidArgument(f"bad cache declaration {cache!r}")
    capacity = int(cache.get("capacity", 64))
    promote_reads = int(cache.get("promote_reads", 2))
    if capacity < 1:
        raise InvalidArgument(f"cache capacity must be >= 1: {capacity}")
    if promote_reads < 1:
        raise InvalidArgument(
            f"cache promote_reads must be >= 1: {promote_reads}")
    return {"capacity": capacity, "promote_reads": promote_reads}
