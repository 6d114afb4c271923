"""librados-like client: map-driven routing with retry-on-stale.

Clients compute object placement themselves from the cached OSD map
and talk straight to the primary.  A ``NotPrimary`` rejection, daemon
failure, or timeout triggers a map refresh from the monitors and a
retry — the standard RADOS client loop.  Ops, watches and notifies all
take that one loop (``_primary_call``), and file data and block images
share one striper over it (``rados_write_striped`` /
``rados_read_striped``).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.errors import (
    DaemonDown,
    MalacologyError,
    NotFound,
    NotPrimary,
    TimeoutError_,
)
from repro.monitor.monitor import MonitorClient
from repro.rados.placement import locate
from repro.sim.event import Timeout


def striped_object(prefix: str, index: int) -> str:
    """Name of the ``index``-th object of a striped stream."""
    return f"{prefix}.{index:08x}"


class RadosClient(MonitorClient):
    """Mixin adding object I/O to a daemon (requires MonitorClient init).

    All methods are generators meant for ``yield from`` inside daemon
    processes (or driven by ``testing.run_script``).
    """

    OSD_TIMEOUT = 2.0
    OSD_RETRIES = 8
    RETRY_BACKOFF = 0.1
    #: Watch sessions are volatile on the OSD; with auto-re-watch on, a
    #: guard ticker probes each watched object's primary and silently
    #: re-establishes any watch lost to an OSD restart or failover.
    WATCH_AUTO_REWATCH = True
    WATCH_REFRESH_INTERVAL = 2.0

    # ------------------------------------------------------------------
    # Core op submission
    # ------------------------------------------------------------------
    def _primary_call(self: Any, pool: str, oid: str, method: str,
                      payload: Dict[str, Any]) -> Generator:
        """Call the object's primary; returns ``(primary, reply)``.

        On a placement error, an empty acting set, ``NotPrimary``, a
        down daemon or a timeout, refresh the map and try again.
        """
        last_error: Optional[MalacologyError] = None
        for attempt in range(self.OSD_RETRIES):
            osdmap = self.cached_maps.get("osd")
            if osdmap is None or attempt > 0:
                osdmap = yield from self.mon_get_map("osd")
            try:
                _, acting = locate(osdmap, pool, oid)
            except MalacologyError as exc:
                last_error = exc
                yield Timeout(self.RETRY_BACKOFF)
                continue
            if not acting:
                last_error = DaemonDown(f"no OSD up for {pool}/{oid}")
                yield Timeout(self.RETRY_BACKOFF)
                continue
            try:
                reply = yield self.call(acting[0], method, payload,
                                        timeout=self.OSD_TIMEOUT)
                return acting[0], reply
            except (NotPrimary, DaemonDown, TimeoutError_) as exc:
                last_error = exc
                yield Timeout(self.RETRY_BACKOFF)
        raise last_error or DaemonDown(f"{method} on {pool}/{oid} failed")

    def rados_op(self: Any, pool: str, oid: str,
                 ops: List[Dict[str, Any]],
                 epoch: Optional[int] = None) -> Generator:
        """Apply an op list to one object; returns per-op results."""
        _, results = yield from self._primary_call(
            pool, oid, "osd_op",
            {"pool": pool, "oid": oid, "ops": ops, "epoch": epoch})
        return results

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def rados_create(self: Any, pool: str, oid: str,
                     exclusive: bool = True) -> Generator:
        yield from self.rados_op(pool, oid,
                                 [{"op": "create", "exclusive": exclusive}])

    def rados_write(self: Any, pool: str, oid: str, offset: int,
                    data: bytes) -> Generator:
        yield from self.rados_op(pool, oid,
                                 [{"op": "write", "offset": offset,
                                   "data": data}])

    def rados_write_full(self: Any, pool: str, oid: str,
                         data: bytes) -> Generator:
        yield from self.rados_op(pool, oid,
                                 [{"op": "write_full", "data": data}])

    def rados_append(self: Any, pool: str, oid: str,
                     data: bytes) -> Generator:
        results = yield from self.rados_op(pool, oid,
                                           [{"op": "append", "data": data}])
        return results[0]

    def rados_read(self: Any, pool: str, oid: str, offset: int = 0,
                   length: Optional[int] = None) -> Generator:
        results = yield from self.rados_op(
            pool, oid, [{"op": "read", "offset": offset, "length": length}])
        return results[0]

    def rados_stat(self: Any, pool: str, oid: str) -> Generator:
        results = yield from self.rados_op(pool, oid, [{"op": "stat"}])
        return results[0]

    def rados_remove(self: Any, pool: str, oid: str) -> Generator:
        yield from self.rados_op(pool, oid, [{"op": "remove"}])

    def rados_omap_set(self: Any, pool: str, oid: str, key: str,
                       value: Any) -> Generator:
        yield from self.rados_op(pool, oid,
                                 [{"op": "omap_set", "key": key,
                                   "value": value}])

    def rados_omap_get(self: Any, pool: str, oid: str,
                       key: str) -> Generator:
        results = yield from self.rados_op(pool, oid,
                                           [{"op": "omap_get", "key": key}])
        return results[0]

    def rados_exec(self: Any, pool: str, oid: str, cls: str, method: str,
                   args: Optional[Dict[str, Any]] = None,
                   epoch: Optional[int] = None) -> Generator:
        """Invoke an object-class method — the Data I/O entry point."""
        results = yield from self.rados_op(
            pool, oid,
            [{"op": "exec", "cls": cls, "method": method,
              "args": args or {}}],
            epoch=epoch)
        return results[0]

    # ------------------------------------------------------------------
    # Striping (file data and block images)
    # ------------------------------------------------------------------
    def rados_write_striped(self: Any, pool: str, prefix: str,
                            object_size: int, offset: int,
                            data: bytes) -> Generator:
        """Write at ``offset`` of a stream striped over the objects
        ``<prefix>.<index:08x>`` of ``object_size`` bytes each."""
        done = 0
        while done < len(data):
            index, obj_off = divmod(offset + done, object_size)
            chunk = data[done:done + object_size - obj_off]
            yield from self.rados_write(pool, striped_object(prefix, index),
                                        obj_off, chunk)
            done += len(chunk)

    def rados_read_striped(self: Any, pool: str, prefix: str,
                           object_size: int, offset: int,
                           length: int) -> Generator:
        """Read a striped stream; never-written bytes read as zeros."""
        out = bytearray()
        while len(out) < length:
            index, obj_off = divmod(offset + len(out), object_size)
            want = min(object_size - obj_off, length - len(out))
            try:
                chunk = yield from self.rados_read(
                    pool, striped_object(prefix, index), obj_off, want)
            except NotFound:
                chunk = b""  # thin-provisioned hole
            out += chunk.ljust(want, b"\x00")
        return bytes(out)

    # ------------------------------------------------------------------
    # Watch / notify
    # ------------------------------------------------------------------
    def init_watch_client(self: Any) -> None:
        """Enable watch-event delivery; call once from ``__init__``.

        Registered watch callbacks receive ``(pool, oid, payload,
        notifier)``.
        """
        self._watch_callbacks = {}
        #: (pool, oid) -> OSD we believe holds our watch session.
        self._watch_primaries = {}
        self._watch_guard_on = False
        if "watch_event" not in self._handlers:
            self.register_handler("watch_event", self._h_watch_event)

    def _h_watch_event(self: Any, src: str, payload: Any) -> None:
        key = (payload["pool"], payload["oid"])
        callback = getattr(self, "_watch_callbacks", {}).get(key)
        if callback is not None:
            callback(payload["pool"], payload["oid"],
                     payload["payload"], payload["notifier"])

    def rados_watch(self: Any, pool: str, oid: str,
                    callback: Any) -> Generator:
        """Subscribe to notifications on one object.

        Watches live on the object's primary and the OSD-side session
        is volatile across failover.  With ``WATCH_AUTO_REWATCH`` (the
        default) a guard ticker detects the loss and re-establishes
        the watch on the current primary, so delivery resumes after an
        OSD restart without caller involvement; with it off, callers
        must re-watch on error as classic librados applications do.
        """
        if not hasattr(self, "_watch_callbacks"):
            raise RuntimeError("call init_watch_client() first")
        self._watch_callbacks[(pool, oid)] = callback
        primary, _ = yield from self._primary_call(
            pool, oid, "osd_watch", {"pool": pool, "oid": oid})
        self._watch_primaries[(pool, oid)] = primary
        self._ensure_watch_guard()
        return primary

    def rados_unwatch(self: Any, pool: str, oid: str) -> Generator:
        getattr(self, "_watch_callbacks", {}).pop((pool, oid), None)
        getattr(self, "_watch_primaries", {}).pop((pool, oid), None)
        yield from self._primary_call(pool, oid, "osd_unwatch",
                                      {"pool": pool, "oid": oid})

    # ------------------------------------------------------------------
    # Watch re-establishment guard
    # ------------------------------------------------------------------
    def _ensure_watch_guard(self: Any) -> None:
        if not self.WATCH_AUTO_REWATCH or self._watch_guard_on:
            return
        self._watch_guard_on = True
        self.every(self.WATCH_REFRESH_INTERVAL, self._watch_guard_tick,
                   name=f"{self.name}:rewatch")

    def _watch_guard_tick(self: Any) -> Optional[Generator]:
        if not self._watch_callbacks:
            return None  # nothing watched right now: zero traffic
        return self._watch_guard_pass()

    def _watch_guard_pass(self: Any) -> Generator:
        """Probe each watched object's primary; re-watch if lost.

        The probe asks the *believed* primary whether our session is
        still registered; a ``False`` (OSD restarted and forgot its
        volatile watchers) or any error (down, no longer primary)
        triggers a full re-watch through the normal map-refreshing
        retry loop.
        """
        for key in sorted(self._watch_callbacks):
            if key not in self._watch_callbacks:
                continue  # unwatched while this pass was in flight
            pool, oid = key
            primary = self._watch_primaries.get(key)
            alive = False
            if primary is not None:
                try:
                    alive = yield self.call(
                        primary, "osd_watch_check",
                        {"pool": pool, "oid": oid},
                        timeout=self.OSD_TIMEOUT)
                except MalacologyError:
                    alive = False
            if alive:
                continue
            try:
                new_primary, _ = yield from self._primary_call(
                    pool, oid, "osd_watch", {"pool": pool, "oid": oid})
            except MalacologyError:
                continue  # cluster still settling; retry next tick
            self._watch_primaries[key] = new_primary
            self.perf.incr("watch.reestablished")

    def rados_notify(self: Any, pool: str, oid: str,
                     payload: Any = None) -> Generator:
        """Notify all watchers of an object; returns watcher count."""
        _, count = yield from self._primary_call(
            pool, oid, "osd_notify",
            {"pool": pool, "oid": oid, "payload": payload})
        return count

    # ------------------------------------------------------------------
    # Pool administration
    # ------------------------------------------------------------------
    def rados_create_pool(self: Any, name: str, size: int = 2,
                          pg_num: int = 64,
                          ec: Optional[Dict[str, int]] = None,
                          backend: Optional[Any] = None,
                          cache: Optional[Dict[str, Any]] = None
                          ) -> Generator:
        """Create a pool; pass ``ec={"k": 2, "m": 1}`` for erasure coding.

        EC pools store any object's bytestream as k data + m parity
        shards (tolerating m lost shards) but — like Ceph's — do not
        support omap or object-class execution.

        ``backend`` picks the pool's object-store profile
        (``"memstore"`` default, ``"logstructured"``, or
        ``{"profile": "coldstore", "k": 2, "m": 1}``); ``cache`` adds
        a write-back cache tier (``{"capacity": 64,
        "promote_reads": 2}``).  See :mod:`repro.store`.  ``ec`` and
        ``backend``/``cache`` are mutually exclusive.
        """
        action = {"action": "create_pool", "name": name,
                  "size": size, "pg_num": pg_num}
        if ec is not None:
            action["ec"] = {"k": int(ec["k"]), "m": int(ec["m"])}
        if backend is not None:
            action["backend"] = backend
        if cache is not None:
            action["cache"] = cache
        yield from self.mon_submit([{
            "op": "map_update", "kind": "osd", "actions": [action]}])
        yield from self.mon_get_map("osd")

    # ------------------------------------------------------------------
    # Interface installation (used by core.DataIOInterface)
    # ------------------------------------------------------------------
    def rados_install_interface(self: Any, name: str, version: int,
                                source: str,
                                category: str = "other") -> Generator:
        """Publish a dynamic object class cluster-wide via the OSD map."""
        yield from self.mon_submit([{
            "op": "map_update", "kind": "osd",
            "actions": [{"action": "set_interface", "name": name,
                         "version": version, "source": source,
                         "category": category}]}])

    def rados_ls_interfaces(self: Any) -> Generator:
        osdmap = yield from self.mon_get_map("osd")
        return dict(osdmap.interfaces)
