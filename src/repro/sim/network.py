"""Simulated network: named endpoints, latency models, partitions.

The network is the only channel between daemons — no shared state —
which keeps the simulated protocols honest about what information a
real Ceph daemon would have.  Delivery is per-message independent
(messages may reorder, as UDP-like semantics; protocols that need
ordering, e.g. Paxos, carry their own sequence numbers, as the real
implementations do).
"""

from __future__ import annotations

import math
import random
from typing import (Any, Callable, Dict, List, Optional, Protocol, Set,
                    Tuple)

from repro.sim.kernel import Simulator


class Endpoint(Protocol):
    """Anything that can receive a message envelope."""

    name: str

    def deliver(self, envelope: Any) -> None: ...


class LatencyModel:
    """Base class: draws a one-way delay for a (src, dst) message."""

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant one-way delay; useful for analytically checkable tests."""

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError("negative latency")
        self.delay = delay

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from [lo, hi]."""

    def __init__(self, lo: float, hi: float):
        if lo < 0 or hi < lo:
            raise ValueError(f"bad latency range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed delay typical of a busy datacenter LAN.

    Parameterized by the median delay and a shape ``sigma``; the long
    tail is what produces the large latency outliers the paper observes
    at the 99.999th percentile (Figure 7).  An optional ``cap`` bounds
    pathological draws so experiments terminate.
    """

    def __init__(self, median: float, sigma: float = 0.5,
                 cap: Optional[float] = None):
        if median <= 0:
            raise ValueError("median must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.mu = math.log(median)
        self.sigma = sigma
        self.cap = cap

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        # ``rng.lognormvariate(mu, sigma)`` inlined: CPython's
        # Kinderman-Monahan normal deviate over ``rng.random``, then
        # exp.  Same floats and RNG state, two frames fewer per message;
        # the equivalence is pinned draw for draw by a unit test.
        draw = rng.random
        while True:
            u1 = draw()
            u2 = 1.0 - draw()
            z = random.NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                break
        delay = math.exp(self.mu + z * self.sigma)
        if self.cap is not None:
            delay = min(delay, self.cap)
        return delay


class ScaledLatency(LatencyModel):
    """Multiply another model's draws by a constant factor.

    The gray-failure primitive: a slow-but-alive daemon is modeled by
    overriding its traffic with its usual latency model scaled up.
    Draws pass through to the wrapped model, so the number of RNG
    samples per message is unchanged — only the magnitude differs.
    """

    def __init__(self, base: LatencyModel, factor: float):
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.base = base
        self.factor = factor

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return self.base.sample(src, dst, rng) * self.factor


#: Default LAN profile: 100us median with a modest tail, loopback-free.
def lan_latency() -> LatencyModel:
    return LogNormalLatency(median=100e-6, sigma=0.35, cap=5e-3)


class Network:
    """Message fabric connecting named endpoints.

    Supports bidirectional partitions and probabilistic loss (via the
    failure injector).  Messages to unregistered or partitioned
    endpoints are silently dropped — exactly what a real network does —
    so timeout handling in the protocols gets genuinely exercised.
    """

    def __init__(self, sim: Simulator,
                 latency: Optional[LatencyModel] = None):
        self.sim = sim
        self.latency = latency or lan_latency()
        self._endpoints: Dict[str, Endpoint] = {}
        #: Blocked *directed* links.  A bidirectional partition is the
        #: symmetric special case (both orientations present).
        self._blocked: Set[Tuple[str, str]] = set()
        self._rng = sim.rng("network")
        #: Per-endpoint latency overrides (see set_latency_override);
        #: they draw from a dedicated RNG stream so instrumentation
        #: endpoints (the mgr) never perturb the main latency sequence.
        self._latency_overrides: Dict[str, LatencyModel] = {}
        self._override_rng = sim.rng("network:overrides")
        #: Optional fault hook consulted after the partition check:
        #: fn(src, dst, envelope) -> None to deliver normally, or a
        #: list of (delay, envelope) deliveries (empty = message
        #: destroyed, len > 1 = duplicates).  The hook counts what it
        #: drops, duplicates or corrupts, and draws delays through
        #: :meth:`delay`, so a hook that declines every message leaves
        #: the schedule byte-identical to a run without one.
        self.fault_hook: Optional[
            Callable[[str, str, Any],
                     Optional[List[Tuple[float, Any]]]]] = None
        # Counters for observability and the propagation benchmarks.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_duplicated = 0
        self.messages_corrupted = 0
        #: Drops by cause; ``messages_dropped`` sums these.
        self.drops_by_cause: Dict[str, int] = {
            "partition": 0, "drop_hook": 0,
            "unregistered": 0, "chaos": 0,
        }

    @property
    def messages_dropped(self) -> int:
        return sum(self.drops_by_cause.values())

    def register(self, endpoint: Endpoint) -> None:
        if endpoint.name in self._endpoints:
            raise ValueError(f"endpoint {endpoint.name!r} already registered")
        self._endpoints[endpoint.name] = endpoint

    def knows(self, name: str) -> bool:
        return name in self._endpoints

    def set_latency_override(self, name: str,
                             model: Optional[LatencyModel]) -> None:
        """Route all traffic to/from ``name`` through ``model``.

        The override samples from a dedicated RNG stream, so traffic
        of an overridden endpoint never advances the shared ``network``
        stream.  This is how observability daemons guarantee that a
        seeded run with them enabled replays the exact latency sequence
        of a run without them (the kernel's determinism contract:
        adding instrumentation cannot change an experiment).  Pass
        ``None`` to remove an override.
        """
        if model is None:
            self._latency_overrides.pop(name, None)
        else:
            self._latency_overrides[name] = model

    def endpoints(self) -> Tuple[Endpoint, ...]:
        """Every registered endpoint, in name order."""
        return tuple(ep for _, ep in sorted(self._endpoints.items()))

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Block traffic in both directions between ``a`` and ``b``."""
        self._blocked.add((a, b))
        self._blocked.add((b, a))

    def heal(self, a: str, b: str) -> None:
        self._blocked.discard((a, b))
        self._blocked.discard((b, a))

    def partition_oneway(self, src: str, dst: str) -> None:
        """Block only ``src`` -> ``dst``; the reverse path stays up.

        Asymmetric links are the classic gray failure: ``dst`` still
        reaches ``src``, so failure detectors on one side see a healthy
        peer while the other side times out.
        """
        self._blocked.add((src, dst))

    def heal_oneway(self, src: str, dst: str) -> None:
        self._blocked.discard((src, dst))

    def heal_all(self) -> None:
        self._blocked.clear()

    def partitioned(self, src: str, dst: str) -> bool:
        """Whether traffic ``src`` -> ``dst`` is currently blocked."""
        return (src, dst) in self._blocked

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def delay(self, src: str, dst: str) -> float:
        """Draw the one-way delay of one ``src`` -> ``dst`` message."""
        if src == dst:
            return 1e-6  # loopback: negligible but nonzero for causality
        overrides = self._latency_overrides
        if overrides:
            override = overrides.get(src, overrides.get(dst))
            if override is not None:
                return override.sample(src, dst, self._override_rng)
        return self.latency.sample(src, dst, self._rng)

    def send(self, src: str, dst: str, envelope: Any) -> None:
        """Queue ``envelope`` for delivery to ``dst`` after sampled latency.

        Never raises on an unreachable destination: loss is a fact of
        networks and callers must rely on timeouts, not exceptions.
        """
        self.messages_sent += 1
        if (src, dst) in self._blocked:
            self.drops_by_cause["partition"] += 1
            return
        if self.fault_hook is not None:
            plan = self.fault_hook(src, dst, envelope)
            if plan is not None:
                for delay, faulted in plan:
                    self.sim.schedule(delay, self._deliver, dst, faulted)
                return
        self.sim.schedule(self.delay(src, dst), self._deliver, dst, envelope)

    def _deliver(self, dst: str, envelope: Any) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            self.drops_by_cause["unregistered"] += 1
            return
        self.messages_delivered += 1
        endpoint.deliver(envelope)

    def stats(self) -> Dict[str, int]:
        """Flat counter snapshot for observability (mgr Prometheus)."""
        out = {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_corrupted": self.messages_corrupted,
        }
        for cause, count in sorted(self.drops_by_cause.items()):
            out[f"messages_dropped_{cause}"] = count
        return out
