"""Store-level fault injection: EIO, torn writes, bit-rot.

The chaos engine (``repro.chaos``) needs faults *below* the OSD — a
medium that errors, tears, and rots — injected without teaching every
backend about failure.  :class:`FaultInjectingStore` wraps any
:class:`~repro.store.base.ObjectStore` and consults a shared
:class:`StoreFaultPlane` on the costed client-op plane only:

* **EIO on commit** — the write is refused before touching the medium;
  the client sees a typed storage error and must retry.
* **Torn commit** — the medium keeps a *partially* applied object
  (new bytestream, stale omap/xattrs) and then errors.  The caller
  sees a failed write, but unlike EIO the damage is real: replicas
  now diverge, and scrub must find and repair the tear.
* **Bit-rot** — :func:`flip_bit` silently flips one stored byte via
  the mapping plane.  Nothing errors; only a scrub digest comparison
  can notice.  The chaos engine applies it to non-primary replicas
  (scrub repairs from primary state, so rotting the primary would
  propagate the damage instead of healing it).

The ``MutableMapping`` plane passes through untouched: recovery,
rebalance, and scrub repair must keep working or no fault would ever
heal.  All randomness comes from the plane's injected RNG (a dedicated
named stream), so chaos runs stay seed-reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import MalacologyError
from repro.rados.objects import StoredObject
from repro.store.base import ObjectStore


class StoreFaultPlane:
    """Shared fault policy consulted by every wrapped store.

    One plane serves all OSDs in a run: rates and targeting live here,
    the wrappers stay stateless.  ``targets`` limits injection to the
    named daemons (None = all wrapped daemons); ``log`` records every
    injected fault as ``(time, kind, detail)`` in fire order.
    """

    def __init__(self, rng: random.Random,
                 clock: Callable[[], float]):
        self.rng = rng
        self.clock = clock
        self.eio_rate = 0.0
        self.torn_rate = 0.0
        self.targets: Optional[set] = None
        self.log: List[Tuple[float, str, str]] = []
        self.faults_injected = 0

    def set_eio(self, rate: float,
                targets: Optional[set] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"EIO rate must be in [0,1], got {rate}")
        self.eio_rate = rate
        if targets is not None:
            self.targets = set(targets)

    def set_torn(self, rate: float,
                 targets: Optional[set] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"torn rate must be in [0,1], got {rate}")
        self.torn_rate = rate
        if targets is not None:
            self.targets = set(targets)

    def clear(self) -> None:
        self.eio_rate = self.torn_rate = 0.0
        self.targets = None

    @property
    def active(self) -> bool:
        return bool(self.eio_rate or self.torn_rate)

    def _applies(self, owner: str) -> bool:
        return self.targets is None or owner in self.targets

    def on_commit(self, owner: str, inner: ObjectStore,
                  obj: StoredObject) -> None:
        """Called before a wrapped commit; raises to inject the fault.

        A torn fault persists the partial object itself before raising,
        so the inner commit never runs for a failed write — exactly one
        medium state per outcome.
        """
        if not self.active or not self._applies(owner):
            return
        # Rates are consulted in a fixed order with one draw each while
        # nonzero, so a given seed yields the same fault sequence
        # regardless of which earlier faults actually fired.
        if self.eio_rate and self.rng.random() < self.eio_rate:
            self._record("eio", f"{owner}:{obj.oid}")
            raise MalacologyError(
                f"injected EIO on commit of {obj.oid} at {owner}")
        if self.torn_rate and self.rng.random() < self.torn_rate:
            inner[obj.oid] = _tear(inner.get(obj.oid), obj)
            self._record("torn", f"{owner}:{obj.oid}")
            raise MalacologyError(
                f"injected torn commit of {obj.oid} at {owner}")

    def _record(self, kind: str, detail: str) -> None:
        self.faults_injected += 1
        self.log.append((self.clock(), kind, detail))

    def flip_bit(self, store: ObjectStore, oid: str,
                 owner: str = "?") -> bool:
        """Silently corrupt one stored byte of ``oid`` (bit-rot).

        Returns False when the object is missing or has no data bytes
        to rot.  Goes through the mapping plane so no delay is charged
        and no version is bumped — the object looks untouched until a
        scrub hashes it.
        """
        obj = store.get(oid)
        if obj is None or not obj.data:
            return False
        obj = obj.clone()  # a stored object is replaced, never edited
        index = self.rng.randrange(len(obj.data))
        obj.data[index] ^= 1 << self.rng.randrange(8)
        store[oid] = obj
        self._record("bitrot", f"{owner}:{oid}@{index}")
        return True


def _tear(old: Optional[StoredObject],
          new: StoredObject) -> StoredObject:
    """The partially-applied object a torn commit leaves behind.

    The bytestream lands but the omap/xattrs plane does not — the
    classic multi-part update torn between its sub-writes.  Against an
    empty medium the tear keeps the bytestream only.
    """
    torn = StoredObject(new.oid)
    torn.data = bytearray(new.data)
    if old is not None:
        torn.omap = dict(old.omap)
        torn.xattrs = dict(old.xattrs)
    torn.version = new.version
    return torn


class FaultInjectingStore(ObjectStore):
    """Transparent fault shim over any backend.

    Only :meth:`commit` consults the plane; every other operation —
    including the whole ``MutableMapping`` plane — delegates straight
    through, so recovery and repair see the raw medium.
    """

    __slots__ = ("inner", "plane", "owner")

    def __init__(self, inner: ObjectStore, plane: StoreFaultPlane,
                 owner: str):
        super().__init__(perf=inner.perf)
        self.inner = inner
        self.plane = plane
        self.owner = owner

    # -- identity passthrough ------------------------------------------
    @property
    def profile(self) -> str:  # type: ignore[override]
        return self.inner.profile

    @property
    def needs_maintenance(self) -> bool:  # type: ignore[override]
        return self.inner.needs_maintenance

    # -- MutableMapping plane (never faulted) --------------------------
    def __getitem__(self, oid: str) -> StoredObject:
        return self.inner[oid]

    def __setitem__(self, oid: str, obj: StoredObject) -> None:
        self.inner[oid] = obj

    def __delitem__(self, oid: str) -> None:
        del self.inner[oid]

    def __iter__(self) -> Iterator[str]:
        return iter(self.inner)

    def __len__(self) -> int:
        return len(self.inner)

    # -- client-op plane -----------------------------------------------
    def fetch(self, oid: str) -> Tuple[Optional[StoredObject], float]:
        return self.inner.fetch(oid)

    def commit(self, obj: StoredObject) -> float:
        self.plane.on_commit(self.owner, self.inner, obj)
        return self.inner.commit(obj)

    def discard(self, oid: str) -> float:
        return self.inner.discard(oid)

    # -- maintenance / introspection -----------------------------------
    def maintenance(self, now: float) -> None:
        self.inner.maintenance(now)

    def flush(self, now: float) -> None:
        self.inner.flush(now)

    def status(self) -> Dict[str, Any]:
        status = self.inner.status()
        status["fault_plane"] = self.plane.active
        return status

    def __repr__(self) -> str:
        return f"FaultInjectingStore({self.inner!r})"


def unwrap_store(store: ObjectStore) -> ObjectStore:
    """The store under any fault shim (for isinstance-based dispatch)."""
    while isinstance(store, FaultInjectingStore):
        store = store.inner
    return store
