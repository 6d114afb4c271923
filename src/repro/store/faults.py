"""Store-level fault injection: EIO, torn writes, bit-rot.

The chaos engine (``repro.chaos``) needs faults *below* the OSD — a
medium that errors, tears, and rots — injected without teaching every
backend about failure.  When an OSD's ``store_faults`` is set, the OSD
calls :meth:`StoreFaultPlane.on_commit` right before each of its two
costed commits (the primary's client write and a replica's repop):

* **EIO on commit** — the write is refused before touching the medium;
  the client sees a typed storage error and must retry.
* **Torn commit** — the medium keeps a *partially* applied object
  (new bytestream, stale omap/xattrs) and then errors.  The caller
  sees a failed write, but unlike EIO the damage is real: replicas
  now diverge, and scrub must find and repair the tear.
* **Bit-rot** — :meth:`StoreFaultPlane.flip_bit` silently flips one
  stored byte via the mapping plane.  Nothing errors; only a scrub
  digest comparison can notice.  The chaos engine applies it to
  non-primary replicas (scrub repairs from primary state, so rotting
  the primary would propagate the damage instead of healing it).

The ``MutableMapping`` plane is never checked: recovery, rebalance,
PG split and scrub repair must keep working or no fault would ever
heal.  All randomness comes from the plane's injected RNG (a dedicated
named stream), so chaos runs stay seed-reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.errors import MalacologyError
from repro.rados.objects import StoredObject
from repro.store.base import ObjectStore


class StoreFaultPlane:
    """Shared fault policy the OSDs consult before each costed commit.

    One plane serves all OSDs in a run: rates and targeting live here.
    Each fault kind has its own targets, replaced by every ``set_*``
    call: a set limits that kind to the named daemons, None means every
    OSD.  ``log`` records every injected fault as
    ``(time, kind, detail)`` in fire order.
    """

    def __init__(self, rng: random.Random,
                 clock: Callable[[], float]):
        self.rng = rng
        self.clock = clock
        self.eio_rate = 0.0
        self.torn_rate = 0.0
        self.eio_targets: Optional[set] = None
        self.torn_targets: Optional[set] = None
        self.log: List[Tuple[float, str, str]] = []
        self.faults_injected = 0

    def set_eio(self, rate: float,
                targets: Optional[set] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"EIO rate must be in [0,1], got {rate}")
        self.eio_rate = rate
        self.eio_targets = None if targets is None else set(targets)

    def set_torn(self, rate: float,
                 targets: Optional[set] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"torn rate must be in [0,1], got {rate}")
        self.torn_rate = rate
        self.torn_targets = None if targets is None else set(targets)

    def clear(self) -> None:
        self.eio_rate = self.torn_rate = 0.0
        self.eio_targets = self.torn_targets = None

    @staticmethod
    def _applies(targets: Optional[set], owner: str) -> bool:
        return targets is None or owner in targets

    def on_commit(self, owner: str, store: ObjectStore,
                  obj: StoredObject) -> None:
        """Called by ``owner`` right before ``store.commit(obj)``;
        raises to inject the fault.

        A torn fault persists the partial object itself before raising,
        so the caller's commit never runs for a failed write — exactly
        one medium state per outcome.
        """
        # Rates are consulted in a fixed order with one draw each while
        # nonzero and aimed at ``owner``, so a given seed yields the
        # same fault sequence regardless of which earlier faults fired.
        if (self.eio_rate and self._applies(self.eio_targets, owner)
                and self.rng.random() < self.eio_rate):
            self._record("eio", f"{owner}:{obj.oid}")
            raise MalacologyError(
                f"injected EIO on commit of {obj.oid} at {owner}")
        if (self.torn_rate and self._applies(self.torn_targets, owner)
                and self.rng.random() < self.torn_rate):
            store[obj.oid] = _tear(store.get(obj.oid), obj)
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

