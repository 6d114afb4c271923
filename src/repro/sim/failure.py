"""Failure injection: crashes, restarts, message loss, and flapping.

The evaluation's recovery claims (sequencer recovery, Mantle policy
durability across MDS failure, OSD re-replication) are only credible if
failures are injectable and deterministic.  The injector works purely
through public daemon/network hooks so it cannot reach into state a
real fault could not destroy.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Protocol, Tuple

from repro.sim.kernel import Simulator
from repro.sim.network import Network, ScaledLatency

#: Envelope kinds safe to duplicate.  Requests are excluded: the RPC
#: layer has no request-id dedup (real messengers resend over TCP, they
#: do not re-execute), so a duplicated non-idempotent request would be
#: applied twice — a fault no real network can produce.  Duplicate
#: responses and casts are exactly what UDP-like delivery allows, and
#: the protocols must (and do) tolerate them.  String literals rather
#: than an import from ``repro.msg`` to keep ``repro.sim`` the bottom
#: layer of the package graph.
_DUP_SAFE_KINDS = ("cast", "response")


class Crashable(Protocol):
    """Daemons expose crash/restart so faults go through one interface."""

    name: str

    def crash(self) -> None: ...

    def restart(self) -> None: ...


class Pausable(Protocol):
    """Daemons whose background tickers can be frozen (gray failure)."""

    name: str

    def pause_tickers(self) -> None: ...

    def resume_tickers(self) -> None: ...


class FailureInjector:
    """Deterministic fault scheduler for a simulation run.

    All methods may be called before ``sim.run``; faults fire at their
    scheduled simulated times.  The injector records every fault it
    fires in :attr:`log` so tests can assert on exact fault timing.
    """

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        self._drop_rates: Dict[Tuple[str, str], float] = {}
        self._rng = sim.rng("failures")
        self.log: List[Tuple[float, str, str]] = []
        self.network.drop_hook = self._should_drop
        # Chaos-plane knobs (duplication / reordering / corruption).
        # Each draws from its own named stream so enabling one cannot
        # perturb the others or the base "failures" loss sequence, and
        # the hook is installed lazily so a plain injector leaves the
        # network's fast path untouched.
        self._dup_rate = 0.0
        self._reorder_rate = 0.0
        self._reorder_spread = 0.0
        self._corrupt_rate = 0.0
        self._corrupt_detected = True
        self._dup_rng = sim.rng("failures:dup")
        self._reorder_rng = sim.rng("failures:reorder")
        self._corrupt_rng = sim.rng("failures:corrupt")
        #: Endpoints currently slowed by :meth:`slow_at` (gray failure).
        self._slowed: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash_at(self, t: float, daemon: Crashable) -> None:
        """Hard-stop ``daemon`` at simulated time ``t``."""
        self.sim.schedule(max(0.0, t - self.sim.now), self._crash, daemon)

    def restart_at(self, t: float, daemon: Crashable) -> None:
        """Bring ``daemon`` back at simulated time ``t``."""
        self.sim.schedule(max(0.0, t - self.sim.now), self._restart, daemon)

    def flap(self, daemon: Crashable, down_at: float,
             up_at: float) -> None:
        """Crash then restart — the classic transient failure."""
        if up_at <= down_at:
            raise ValueError("restart must come after crash")
        self.crash_at(down_at, daemon)
        self.restart_at(up_at, daemon)

    def _crash(self, daemon: Crashable) -> None:
        self.log.append((self.sim.now, "crash", daemon.name))
        daemon.crash()

    def _restart(self, daemon: Crashable) -> None:
        self.log.append((self.sim.now, "restart", daemon.name))
        daemon.restart()

    # ------------------------------------------------------------------
    # Message loss
    # ------------------------------------------------------------------
    def set_loss(self, src: str, dst: str, rate: float) -> None:
        """Drop messages src->dst with the given probability.

        Unidirectional by design: asymmetric loss is the nastier and
        more realistic case for lease protocols.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0,1], got {rate}")
        if rate == 0.0:
            self._drop_rates.pop((src, dst), None)
        else:
            self._drop_rates[(src, dst)] = rate

    def set_loss_everywhere(self, rate: float) -> None:
        """Uniform background loss on every link (wildcard entry)."""
        self.set_loss("*", "*", rate)

    def clear_loss(self) -> None:
        self._drop_rates.clear()

    def _should_drop(self, src: str, dst: str) -> bool:
        # Most-specific match wins: exact pair, then per-endpoint
        # wildcards, then the global wildcard.
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            if key in self._drop_rates:
                rate = self._drop_rates[key]
                break
        else:
            return False
        if rate <= 0.0:
            return False
        dropped = self._rng.random() < rate
        if dropped:
            self.log.append((self.sim.now, "drop", f"{src}->{dst}"))
        return dropped

    # ------------------------------------------------------------------
    # Partitions (thin wrappers so faults are logged in one place)
    # ------------------------------------------------------------------
    def partition_at(self, t: float, a: str, b: str) -> None:
        self.sim.schedule(max(0.0, t - self.sim.now),
                          self._partition, a, b)

    def heal_at(self, t: float, a: str, b: str) -> None:
        self.sim.schedule(max(0.0, t - self.sim.now), self._heal, a, b)

    def partition_oneway_at(self, t: float, src: str, dst: str) -> None:
        """Block only ``src`` -> ``dst`` at time ``t`` (asymmetric link)."""
        self.sim.schedule(max(0.0, t - self.sim.now),
                          self._partition_oneway, src, dst)

    def heal_oneway_at(self, t: float, src: str, dst: str) -> None:
        self.sim.schedule(max(0.0, t - self.sim.now),
                          self._heal_oneway, src, dst)

    def heal_all_at(self, t: float) -> None:
        self.sim.schedule(max(0.0, t - self.sim.now), self._heal_all)

    def _partition(self, a: str, b: str) -> None:
        self.log.append((self.sim.now, "partition", f"{a}|{b}"))
        self.network.partition(a, b)

    def _heal(self, a: str, b: str) -> None:
        self.log.append((self.sim.now, "heal", f"{a}|{b}"))
        self.network.heal(a, b)

    def _partition_oneway(self, src: str, dst: str) -> None:
        self.log.append((self.sim.now, "partition", f"{src}->{dst}"))
        self.network.partition_oneway(src, dst)

    def _heal_oneway(self, src: str, dst: str) -> None:
        self.log.append((self.sim.now, "heal", f"{src}->{dst}"))
        self.network.heal_oneway(src, dst)

    def _heal_all(self) -> None:
        self.log.append((self.sim.now, "heal", "*"))
        self.network.heal_all()

    # ------------------------------------------------------------------
    # Gray failures: slow-but-alive daemons
    # ------------------------------------------------------------------
    def slow_at(self, t: float, name: str, factor: float) -> None:
        """Scale all latency to/from ``name`` by ``factor`` at time ``t``.

        The daemon keeps running and answering — just late.  This is
        the failure mode detectors handle worst: nothing is down, so
        nothing is marked failed, yet every request through the slow
        node eats the scaled delay.
        """
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.sim.schedule(max(0.0, t - self.sim.now),
                          self._slow, name, factor)

    def unslow_at(self, t: float, name: str) -> None:
        self.sim.schedule(max(0.0, t - self.sim.now), self._unslow, name)

    def _slow(self, name: str, factor: float) -> None:
        self.log.append((self.sim.now, "slow", f"{name}x{factor:g}"))
        self._slowed[name] = factor
        self.network.set_latency_override(
            name, ScaledLatency(self.network.latency, factor))

    def _unslow(self, name: str) -> None:
        if self._slowed.pop(name, None) is None:
            return
        self.log.append((self.sim.now, "unslow", name))
        self.network.set_latency_override(name, None)

    def clear_slowdowns(self) -> None:
        """Remove every active slowdown immediately."""
        for name in sorted(self._slowed):
            self._unslow(name)

    def pause_at(self, t: float, daemon: Pausable) -> None:
        """Freeze ``daemon``'s background tickers at time ``t``.

        Models a stalled event loop (GC pause, disk stall): the daemon
        still answers requests already in flight but stops initiating
        heartbeats, scrubs, and other periodic work.
        """
        self.sim.schedule(max(0.0, t - self.sim.now), self._pause, daemon)

    def resume_at(self, t: float, daemon: Pausable) -> None:
        self.sim.schedule(max(0.0, t - self.sim.now), self._resume, daemon)

    def _pause(self, daemon: Pausable) -> None:
        self.log.append((self.sim.now, "pause", daemon.name))
        daemon.pause_tickers()

    def _resume(self, daemon: Pausable) -> None:
        self.log.append((self.sim.now, "resume", daemon.name))
        daemon.resume_tickers()

    # ------------------------------------------------------------------
    # Message chaos: duplication, reordering, corruption
    # ------------------------------------------------------------------
    def set_duplication(self, rate: float) -> None:
        """Duplicate casts/responses with the given probability.

        The copy is delivered a little later than the original (an
        extra latency draw), which also exercises reordering between
        the twins.  Requests are never duplicated — see
        ``_DUP_SAFE_KINDS``.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"duplication rate must be in [0,1], got {rate}")
        self._dup_rate = rate
        self._sync_chaos_hook()

    def set_reorder(self, rate: float, spread: float = 4.0) -> None:
        """Delay a random ``rate`` fraction of messages by up to
        ``spread`` extra latency multiples, forcing reordering well
        beyond what the base latency jitter produces.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"reorder rate must be in [0,1], got {rate}")
        if spread < 0:
            raise ValueError("spread must be non-negative")
        self._reorder_rate = rate
        self._reorder_spread = spread
        self._sync_chaos_hook()

    def set_corruption(self, rate: float, detected: bool = True) -> None:
        """Corrupt message payloads with the given probability.

        ``detected=True`` (default) models checksummed transports: the
        receiver discards the mangled frame, so corruption degrades to
        loss — the only corruption a CRC-protected wire lets through to
        the application is none.  ``detected=False`` models the rare
        undetected flip: the payload is mutated in place and delivered,
        which no protocol here is expected to survive — it exists to
        demonstrate that the oracles catch silent wire corruption.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0,1], got {rate}")
        self._corrupt_rate = rate
        self._corrupt_detected = detected
        self._sync_chaos_hook()

    def clear_chaos(self) -> None:
        """Disable duplication, reordering, and corruption."""
        self._dup_rate = self._reorder_rate = self._corrupt_rate = 0.0
        self._sync_chaos_hook()

    def _sync_chaos_hook(self) -> None:
        # Install only while some knob is live: an idle injector must
        # leave the network send path byte-identical to pre-chaos runs.
        if self._dup_rate or self._reorder_rate or self._corrupt_rate:
            self.network.chaos_hook = self._chaos_plan
        elif self.network.chaos_hook == self._chaos_plan:
            # == not `is`: each attribute access builds a fresh bound
            # method, so identity would never match and the hook would
            # stay installed forever.
            self.network.chaos_hook = None

    def _chaos_plan(self, src: str, dst: str, envelope: Any,
                    delay: float) -> Optional[List[Tuple[float, Any]]]:
        """Decide this message's fate; None means deliver normally."""
        touched = False
        if self._corrupt_rate and (
                self._corrupt_rng.random() < self._corrupt_rate):
            self.network.messages_corrupted += 1
            if self._corrupt_detected:
                # Receiver-side CRC catches it; the frame is dropped.
                self.log.append(
                    (self.sim.now, "corrupt-drop", f"{src}->{dst}"))
                return []
            envelope = self._mangle(envelope)
            self.log.append((self.sim.now, "corrupt", f"{src}->{dst}"))
            touched = True
        if self._reorder_rate and (
                self._reorder_rng.random() < self._reorder_rate):
            delay += delay * self._reorder_rng.uniform(
                0.0, self._reorder_spread)
            self.log.append((self.sim.now, "reorder", f"{src}->{dst}"))
            touched = True
        plan = [(delay, envelope)]
        if (self._dup_rate
                and getattr(envelope, "kind", None) in _DUP_SAFE_KINDS
                and self._dup_rng.random() < self._dup_rate):
            extra = delay + self.network.latency.sample(
                src, dst, self._dup_rng)
            plan.append((extra, copy.deepcopy(envelope)))
            self.log.append((self.sim.now, "duplicate", f"{src}->{dst}"))
            touched = True
        return plan if touched else None

    @staticmethod
    def _mangle(envelope: Any) -> Any:
        """Flip one bit somewhere in the payload (undetected corruption).

        Works on a deep copy; integers, floats, strings, and bytes
        leaves are all fair game.  The walk enters dicts, lists and
        tuples only: any other object (a cluster map, a stored object)
        is an opaque leaf it leaves alone.  If the payload has no
        flippable leaf the message id is flipped instead — still a
        corrupt frame.
        """
        mangled = copy.deepcopy(envelope)

        def flip(value: Any) -> Any:
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value ^ 1
            if isinstance(value, float):
                return -value if value else 1.0
            if isinstance(value, str):
                return value[:-1] + chr(ord(value[-1]) ^ 1) if value else "\x01"
            if isinstance(value, (bytes, bytearray)):
                if not value:
                    return b"\x01"
                return value[:-1] + bytes([value[-1] ^ 1])
            return value

        def walk(node: Any) -> Tuple[Any, bool]:
            if isinstance(node, dict):
                for key in sorted(node, key=repr):
                    new, done = walk(node[key])
                    if done:
                        node[key] = new
                        return node, True
                return node, False
            if isinstance(node, list):
                for i, item in enumerate(node):
                    new, done = walk(item)
                    if done:
                        node[i] = new
                        return node, True
                return node, False
            if isinstance(node, tuple):
                items = list(node)
                for i, item in enumerate(items):
                    new, done = walk(item)
                    if done:
                        items[i] = new
                        return tuple(items), True
                return node, False
            flipped = flip(node)
            if flipped is not node and flipped != node:
                return flipped, True
            return node, False

        payload, done = walk(mangled.payload)
        if done:
            mangled.payload = payload
        else:
            mangled.msg_id ^= 1
        return mangled
