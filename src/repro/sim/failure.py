"""Failure injection: crashes, partitions, message loss and chaos.

The evaluation's recovery claims (sequencer recovery, Mantle policy
durability across MDS failure, OSD re-replication) are only credible if
failures are injectable and deterministic.  The injector works purely
through public daemon/network hooks so it cannot reach into state a
real fault could not destroy.  Its methods act when called; deciding
*when* is the nemesis engine's job (``repro.chaos.engine``).
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
    """Deterministic fault actions and the run's one fault log.

    Every fault the injector applies, and every fault another plane
    reports through :meth:`record` (the store fault plane, the nemesis
    engine's window markers), lands in :attr:`log` as
    ``(time, kind, detail)`` in fire order.
    """

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        self._drop_rates: Dict[Tuple[str, str], float] = {}
        self._rng = sim.rng("failures")
        self.log: List[Tuple[float, str, str]] = []
        # Chaos-plane knobs (duplication / reordering / corruption).
        # Each draws from its own named stream so enabling one cannot
        # perturb the others or the base "failures" loss sequence.
        self._dup_rate = 0.0
        self._reorder_rate = 0.0
        self._reorder_spread = 0.0
        self._corrupt_rate = 0.0
        self._corrupt_detected = True
        self._dup_rng = sim.rng("failures:dup")
        self._reorder_rng = sim.rng("failures:reorder")
        self._corrupt_rng = sim.rng("failures:corrupt")
        #: Endpoints currently slowed by :meth:`slow` (gray failure).
        self._slowed: Dict[str, float] = {}

    def record(self, kind: str, detail: str) -> None:
        """Append one fault to the log, stamped with the sim clock."""
        self.log.append((self.sim.now, kind, detail))

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self, daemon: Crashable) -> None:
        """Hard-stop ``daemon``."""
        self.record("crash", daemon.name)
        daemon.crash()

    def restart(self, daemon: Crashable) -> None:
        self.record("restart", daemon.name)
        daemon.restart()

    # ------------------------------------------------------------------
    # Message loss
    # ------------------------------------------------------------------
    def set_loss(self, src: str, dst: str, rate: float) -> None:
        """Drop messages src->dst with the given probability.

        Unidirectional by design: asymmetric loss is the nastier and
        more realistic case for lease protocols.  Either endpoint may
        be ``"*"``; the most specific match wins.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0,1], got {rate}")
        if rate == 0.0:
            self._drop_rates.pop((src, dst), None)
        else:
            self._drop_rates[(src, dst)] = rate
        self._sync_hook()

    def clear_loss(self) -> None:
        self._drop_rates.clear()
        self._sync_hook()

    def _loss_rate(self, src: str, dst: str) -> float:
        # Most-specific match wins: exact pair, then per-endpoint
        # wildcards, then the global wildcard.
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            if key in self._drop_rates:
                return self._drop_rates[key]
        return 0.0

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        self.record("partition", f"{a}|{b}")
        self.network.partition(a, b)

    def heal(self, a: str, b: str) -> None:
        self.record("heal", f"{a}|{b}")
        self.network.heal(a, b)

    def partition_oneway(self, src: str, dst: str) -> None:
        """Block only ``src`` -> ``dst`` (asymmetric link)."""
        self.record("partition", f"{src}->{dst}")
        self.network.partition_oneway(src, dst)

    def heal_oneway(self, src: str, dst: str) -> None:
        self.record("heal", f"{src}->{dst}")
        self.network.heal_oneway(src, dst)

    def heal_all(self) -> None:
        self.record("heal", "*")
        self.network.heal_all()

    # ------------------------------------------------------------------
    # Gray failures: slow-but-alive daemons
    # ------------------------------------------------------------------
    def slow(self, name: str, factor: float) -> None:
        """Scale all latency to/from ``name`` by ``factor``.

        The daemon keeps running and answering — just late.  This is
        the failure mode detectors handle worst: nothing is down, so
        nothing is marked failed, yet every request through the slow
        node eats the scaled delay.
        """
        model = ScaledLatency(self.network.latency, factor)
        self.record("slow", f"{name}x{factor:g}")
        self._slowed[name] = factor
        self.network.set_latency_override(name, model)

    def unslow(self, name: str) -> None:
        if self._slowed.pop(name, None) is None:
            return
        self.record("unslow", name)
        self.network.set_latency_override(name, None)

    def clear_slowdowns(self) -> None:
        """Remove every active slowdown immediately."""
        for name in sorted(self._slowed):
            self.unslow(name)

    def pause(self, daemon: Pausable) -> None:
        """Freeze ``daemon``'s background tickers.

        Models a stalled event loop (GC pause, disk stall): the daemon
        still answers requests already in flight but stops initiating
        heartbeats, scrubs, and other periodic work.
        """
        self.record("pause", daemon.name)
        daemon.pause_tickers()

    def resume(self, daemon: Pausable) -> None:
        self.record("resume", daemon.name)
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
        self._sync_hook()

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
        self._sync_hook()

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
        self._sync_hook()

    def clear_chaos(self) -> None:
        """Disable duplication, reordering, and corruption."""
        self._dup_rate = self._reorder_rate = self._corrupt_rate = 0.0
        self._sync_hook()

    def _sync_hook(self) -> None:
        # Install only while some loss rate or chaos knob is live: an
        # idle injector leaves the network send path untouched.
        if (self._drop_rates or self._dup_rate or self._reorder_rate
                or self._corrupt_rate):
            self.network.fault_hook = self._chaos_plan
        elif self.network.fault_hook == self._chaos_plan:
            # == not `is`: each attribute access builds a fresh bound
            # method, so identity would never match and the hook would
            # stay installed forever.
            self.network.fault_hook = None

    def _chaos_plan(self, src: str, dst: str,
                    envelope: Any) -> Optional[List[Tuple[float, Any]]]:
        """The network's fault hook: decide this message's fate.

        Draws in a fixed order: the loss draw, then the delay, then
        the corruption, reorder and duplicate draws, each from its own
        stream.  Returns None (deliver normally) only when no chaos
        knob is live, so the network never draws a second delay.
        """
        rate = self._loss_rate(src, dst)
        if rate and self._rng.random() < rate:
            self.network.drops_by_cause["drop_hook"] += 1
            self.record("drop", f"{src}->{dst}")
            return []
        if not (self._dup_rate or self._reorder_rate or self._corrupt_rate):
            return None
        delay = self.network.delay(src, dst)
        if self._corrupt_rate and (
                self._corrupt_rng.random() < self._corrupt_rate):
            self.network.messages_corrupted += 1
            if self._corrupt_detected:
                # Receiver-side CRC catches it; the frame is dropped.
                self.network.drops_by_cause["chaos"] += 1
                self.record("corrupt-drop", f"{src}->{dst}")
                return []
            envelope = self._mangle(envelope)
            self.record("corrupt", f"{src}->{dst}")
        if self._reorder_rate and (
                self._reorder_rng.random() < self._reorder_rate):
            delay += delay * self._reorder_rng.uniform(
                0.0, self._reorder_spread)
            self.record("reorder", f"{src}->{dst}")
        plan = [(delay, envelope)]
        if (self._dup_rate
                and getattr(envelope, "kind", None) in _DUP_SAFE_KINDS
                and self._dup_rng.random() < self._dup_rate):
            extra = delay + self.network.latency.sample(
                src, dst, self._dup_rng)
            plan.append((extra, copy.deepcopy(envelope)))
            self.network.messages_duplicated += 1
            self.record("duplicate", f"{src}->{dst}")
        return plan

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
