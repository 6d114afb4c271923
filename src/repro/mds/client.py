"""File-system client: routing, capability caching, sequencer ops.

The client side of the Shared Resource protocol (section 6.1.1): when
it holds an exclusive cacheable capability on a sequencer inode it
grants log positions locally at memory speed; when the MDS asks for
the capability back it releases *per the lease policy it was granted
under* — immediately (best-effort), after a minimum hold (delay), or
after a quota of local operations bounded by the maximum reservation
(quota).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    DaemonDown,
    MalacologyError,
    TimeoutError_,
    TryAgain,
    WrongMDS,
)
from repro.mds.capability import BEST_EFFORT, DELAY, QUOTA
from repro.monitor.monitor import MonitorClient
from repro.sim.event import Timeout


class FsClient(MonitorClient):
    """Mixin adding metadata-service access to a daemon.

    Requires ``init_mon_client`` to have run; call :meth:`init_fs_client`
    from ``__init__``.
    """

    MDS_TIMEOUT = 15.0
    MDS_RETRIES = 40
    RETRY_BACKOFF = 0.05
    #: Cost of serving one sequencer op from the locally cached
    #: capability (a memory increment plus client bookkeeping).
    LOCAL_OP_COST = 50e-6

    def init_fs_client(self: Any) -> None:
        #: path -> live capability record.
        self._caps: Dict[str, Dict[str, Any]] = {}
        #: path -> in-flight release future.  Re-acquiring before our
        #: own release is acknowledged would hand us back a stale
        #: embedded snapshot (the MDS still thinks we hold the cap),
        #: which for a sequencer means duplicate positions.
        self._releasing: Dict[str, Any] = {}
        #: Trace of (time, value) per granted position — Figure 5 data.
        self.seq_trace: List[Tuple[float, int]] = []
        #: Revokes that arrived before their grant (the cast can overtake
        #: the grant reply on the wire): (ino, seq) pairs applied the
        #: moment the matching grant is adopted.
        self._early_revokes: set = set()
        #: path -> mds map epoch at which the server said "round-trip
        #: mode" — remembered so steady-state ops are one round trip,
        #: re-validated whenever the map changes (the policy may have
        #: become cacheable).
        self._round_trip: Dict[str, int] = {}
        if "cap_revoke" not in self._handlers:
            self.register_handler("cap_revoke", self._h_cap_revoke)

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def fs_request(self: Any, op: str, path: str,
                   args: Optional[Dict[str, Any]] = None) -> Generator:
        payload = {"op": op, "path": path, "args": args or {}}
        last_error: Optional[MalacologyError] = None
        for _ in range(self.MDS_RETRIES):
            m = self.cached_maps.get("mds")
            if m is None:
                m = yield from self.mon_get_map("mds")
            if m.routing_mode == "proxy" and m.ranks:
                # Proxy mode (Figure 11): "clients continue sending
                # their requests to the first server", which forwards.
                target = m.rank_holder(min(m.ranks))
            else:
                target = m.rank_holder(m.owner_of(path))
            if target is None or m.state.get(target) != "up":
                yield Timeout(self.RETRY_BACKOFF)
                m = yield from self.mon_get_map("mds")
                continue
            try:
                result = yield self.call(target, "mds_req", payload,
                                         timeout=self.MDS_TIMEOUT)
                return result
            except WrongMDS as exc:
                last_error = exc
                # "Client mode": learn the new owner and go there.
                yield from self.mon_get_map("mds")
            except (TryAgain, DaemonDown, TimeoutError_) as exc:
                last_error = exc
                yield Timeout(self.RETRY_BACKOFF)
                yield from self.mon_get_map("mds")
        raise last_error or TryAgain(f"mds request {op} on {path} failed")

    # ------------------------------------------------------------------
    # Namespace convenience
    # ------------------------------------------------------------------
    def fs_mkdir(self: Any, path: str) -> Generator:
        result = yield from self.fs_request("mkdir", path)
        return result

    def fs_create(self: Any, path: str,
                  file_type: str = "regular") -> Generator:
        result = yield from self.fs_request("create", path,
                                            {"file_type": file_type})
        return result

    def fs_stat(self: Any, path: str) -> Generator:
        result = yield from self.fs_request("stat", path)
        return result

    def fs_readdir(self: Any, path: str) -> Generator:
        result = yield from self.fs_request("readdir", path)
        return result

    def fs_unlink(self: Any, path: str) -> Generator:
        result = yield from self.fs_request("unlink", path)
        return result

    def fs_rename(self: Any, path: str, to: str) -> Generator:
        """Rename a file (directories unsupported; see MDS._op_rename)."""
        result = yield from self.fs_request("rename", path, {"to": to})
        return result

    def fs_exec(self: Any, path: str, method: str,
                args: Optional[Dict[str, Any]] = None) -> Generator:
        """Server-side File Type operation (round-trip path)."""
        result = yield from self.fs_request(
            "ftype_exec", path, {"method": method, "args": args or {}})
        return result

    # ------------------------------------------------------------------
    # File data I/O (requires the RadosClient mixin on the same object)
    # ------------------------------------------------------------------
    #: File data stripes over fixed-size RADOS objects, CephFS-style
    #: (the inode's striping strategy is the File Type interface's
    #: Ceph example in Table 2).  Small so tests exercise striping.
    FILE_OBJECT_SIZE = 64 * 1024
    FILE_DATA_POOL = "data"

    @staticmethod
    def _file_object(ino: int, block: int) -> str:
        return f"ino.{ino:016x}.{block:08x}"

    def _file_ino(self: Any, path: str) -> Generator:
        st = yield from self.fs_stat(path)
        if st["kind"] != "file":
            from repro.errors import InvalidArgument

            raise InvalidArgument(f"not a regular file: {path!r}")
        return st

    def fs_write(self: Any, path: str, offset: int,
                 data: bytes) -> Generator:
        """Write file data: stripe to RADOS, then update the size."""
        if offset < 0:
            from repro.errors import InvalidArgument

            raise InvalidArgument("negative file offset")
        st = yield from self._file_ino(path)
        ino, bs = st["ino"], self.FILE_OBJECT_SIZE
        cursor = offset
        remaining = data
        while remaining:
            block, block_off = divmod(cursor, bs)
            chunk = remaining[: bs - block_off]
            yield from self.rados_write(
                self.FILE_DATA_POOL, self._file_object(ino, block),
                block_off, chunk)
            cursor += len(chunk)
            remaining = remaining[len(chunk):]
        end = offset + len(data)
        if end > st["size"]:
            yield from self.fs_request("setattr", path, {"size": end})
        return end

    def fs_read(self: Any, path: str, offset: int = 0,
                length: Optional[int] = None) -> Generator:
        """Read file data; holes (never-written stripes) read as zeros."""
        from repro.errors import NotFound

        st = yield from self._file_ino(path)
        size = st["size"]
        if offset >= size:
            return b""
        end = size if length is None else min(size, offset + length)
        ino, bs = st["ino"], self.FILE_OBJECT_SIZE
        out = bytearray()
        cursor = offset
        while cursor < end:
            block, block_off = divmod(cursor, bs)
            want = min(bs - block_off, end - cursor)
            try:
                chunk = yield from self.rados_read(
                    self.FILE_DATA_POOL, self._file_object(ino, block),
                    block_off, want)
            except NotFound:
                chunk = b""
            out.extend(chunk)
            out.extend(b"\x00" * (want - len(chunk)))
            cursor += want
        return bytes(out)

    # ------------------------------------------------------------------
    # Sequencer operations (cap-aware fast path)
    # ------------------------------------------------------------------
    def seq_next(self: Any, path: str) -> Generator:
        """Obtain the next log position from the sequencer at ``path``.

        Fast path: locally cached capability.  Slow path: acquire the
        capability (waiting for the current holder to release) or, in
        round-trip mode, a server-side ``next``.

        Every successful grant records its end-to-end latency in the
        ``seq.next`` telemetry tracker (full samples retained: the
        Figure 7 CDF reads exact tail quantiles from it).
        """
        started = self.sim.now
        while True:
            cap = self._caps.get(path)
            if cap is not None:
                yield Timeout(self.LOCAL_OP_COST)
                # The release may have raced in during the yield.
                if self._caps.get(path) is not cap:
                    continue
                pos = cap["embedded"]["tail"]
                cap["embedded"]["tail"] = pos + 1
                cap["ops"] += 1
                self.seq_trace.append((self.sim.now, pos))
                self._maybe_voluntary_release(path, cap)
                self.perf.time("seq.next", self.sim.now - started,
                               retain=True)
                return pos
            if self._round_trip_valid(path):
                pos = yield from self.fs_exec(path, "next")
                self.seq_trace.append((self.sim.now, pos))
                self.perf.time("seq.next", self.sim.now - started,
                               retain=True)
                return pos
            pending_release = self._releasing.get(path)
            if pending_release is not None:
                yield pending_release
                continue
            grant = yield from self.fs_request("open", path)
            if not grant["cacheable"]:
                m = self.cached_maps.get("mds")
                self._round_trip[path] = m.epoch if m else 0
                pos = yield from self.fs_exec(path, "next")
                self.seq_trace.append((self.sim.now, pos))
                self.perf.time("seq.next", self.sim.now - started,
                               retain=True)
                return pos
            self.perf.incr("cap.acquired")
            self._adopt_grant(path, grant)

    def _round_trip_valid(self: Any, path: str) -> bool:
        epoch = self._round_trip.get(path)
        if epoch is None:
            return False
        m = self.cached_maps.get("mds")
        if m is None or m.epoch != epoch:
            self._round_trip.pop(path, None)
            return False
        return True

    def seq_read(self: Any, path: str) -> Generator:
        cap = self._caps.get(path)
        if cap is not None:
            yield Timeout(self.LOCAL_OP_COST)
            return cap["embedded"]["tail"]
        value = yield from self.fs_exec(path, "read")
        return value

    # ------------------------------------------------------------------
    # Capability bookkeeping
    # ------------------------------------------------------------------
    def _adopt_grant(self: Any, path: str, grant: Dict[str, Any]) -> None:
        cap = {
            "ino": grant["ino"],
            "seq": grant["seq"],
            "policy": grant["policy"],
            "embedded": grant["embedded"],
            "ops": 0,
            "granted_at": self.sim.now,
            "revoke_pending": False,
        }
        self._caps[path] = cap
        if (grant["ino"], grant["seq"]) in self._early_revokes:
            self._early_revokes.discard((grant["ino"], grant["seq"]))
            self._start_release(path, cap, "")

    def _h_cap_revoke(self: Any, src: str, payload: Dict[str, Any]) -> None:
        for path, cap in list(self._caps.items()):
            if cap["ino"] == payload["ino"] and cap["seq"] == payload["seq"]:
                self._start_release(path, cap, src)
                return
        # The grant this revoke targets is still in flight to us.
        self._early_revokes.add((payload["ino"], payload["seq"]))

    def _start_release(self: Any, path: str, cap: Dict[str, Any],
                       mds: str) -> None:
        if cap["revoke_pending"]:
            return
        cap["revoke_pending"] = True
        mode = cap["policy"]["mode"]
        now = self.sim.now
        if mode == BEST_EFFORT:
            deadline = now
        elif mode == DELAY:
            deadline = cap["granted_at"] + cap["policy"]["min_hold"]
        elif mode == QUOTA:
            # Release when the quota is consumed (checked per op) or at
            # the maximum reservation, whichever comes first.
            deadline = cap["granted_at"] + cap["policy"]["max_hold"]
            if cap["ops"] >= cap["policy"]["quota"]:
                deadline = now
        else:
            deadline = now
        self.sim.schedule(max(0.0, deadline - now),
                          self._release_if_held, path, cap["seq"])

    def _maybe_voluntary_release(self: Any, path: str,
                                 cap: Dict[str, Any]) -> None:
        if not cap["revoke_pending"]:
            return
        if (cap["policy"]["mode"] == QUOTA
                and cap["ops"] >= cap["policy"]["quota"]):
            self._release_if_held(path, cap["seq"])

    def _release_if_held(self: Any, path: str, seq: int) -> None:
        cap = self._caps.get(path)
        if cap is None or cap["seq"] != seq or not self.alive:
            return
        del self._caps[path]
        from repro.sim.event import Future

        self._releasing[path] = Future(name=f"caprel:{path}")
        self.spawn(self._send_release(path, cap),
                   name=f"{self.name}:caprel")

    def _send_release(self: Any, path: str,
                      cap: Dict[str, Any]) -> Generator:
        try:
            yield from self.fs_request(
                "cap_release", path,
                {"ino": cap["ino"], "seq": cap["seq"],
                 "dirty": cap["embedded"]})
        except MalacologyError:
            # The MDS's revoke deadline reclaims the cap if this never
            # lands; positions stay safe via seal-based recovery.
            pass
        finally:
            fut = self._releasing.pop(path, None)
            if fut is not None:
                fut.resolve_if_pending(None)
