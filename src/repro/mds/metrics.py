"""Load metrics the balancing policies consume (paper section 4.3.3).

CephFS balancers use "metrics based on system state (e.g., CPU and
memory utilization) and statistics collected by the cluster (e.g., the
popularity of an inode)".  The tracker keeps exponentially decayed
request counters per MDS and per inode, plus a synthetic CPU
utilization derived from request processing time — the same inputs the
paper's Figure 10(a) modes (CPU / workload / hybrid) switch between.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

# DecayCounter lives in util.stats beside the other streaming statistics;
# re-exported here for existing callers.
from repro.util.stats import DecayCounter

__all__ = ["DecayCounter", "LoadTracker"]


class LoadTracker:
    """Per-MDS load bookkeeping.

    ``cpu`` is synthetic: the fraction of recent wall time spent in
    request service (busy time through a decay counter), plus
    jittery measurement noise injected by the caller if desired —
    the paper notes CPU-based decisions are noisy and unpredictable,
    which the CPU-mode benchmark reproduces by sampling this.
    """

    def __init__(self, halflife: float = 5.0):
        self.requests = DecayCounter(halflife)
        self.busy = DecayCounter(halflife)
        #: Requests arriving from clients directly (not via a proxy
        #: MDS); peers use this to detect spread client sessions.  Short
        #: halflife: coherence pressure should vanish quickly once a
        #: server's direct clients move away.
        self.direct = DecayCounter(halflife=1.0)
        self._inode_pop: Dict[str, DecayCounter] = {}
        self._halflife = halflife

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, now: float, path: Optional[str],
                       service_time: float) -> None:
        """Count a request; ``path`` None adds no inode popularity."""
        self.requests.hit(now)
        self.busy.hit(now, service_time)
        if path is None:
            return
        counter = self._inode_pop.get(path)
        if counter is None:
            counter = self._inode_pop[path] = DecayCounter(self._halflife)
        counter.hit(now)

    def record_direct(self, now: float) -> None:
        self.direct.hit(now)

    def forget_inode(self, path: str) -> None:
        self._inode_pop.pop(path, None)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def request_rate(self, now: float) -> float:
        """Decayed requests (roughly: recent requests per halflife)."""
        return self.requests.get(now)

    def cpu_util(self, now: float) -> float:
        """Synthetic CPU utilization in [0, 1]."""
        # busy holds decayed busy-seconds; normalize by the halflife
        # window to approximate a utilization fraction.
        return min(1.0, self.busy.get(now) / self._halflife)

    def inode_popularity(self, now: float, path: str) -> float:
        counter = self._inode_pop.get(path)
        return counter.get(now) if counter else 0.0

    def hottest_inodes(self, now: float,
                       limit: int = 10) -> List[Tuple[str, float]]:
        scored = sorted(
            ((path, c.get(now)) for path, c in self._inode_pop.items()),
            key=lambda pair: pair[1], reverse=True)
        return scored[:limit]

    def snapshot(self, now: float,
                 cpu_noise_rng: Any = None) -> Dict[str, Any]:
        """The per-MDS row exported to balancer policies (``mds[i]``).

        ``cpu_noise_rng`` injects multiplicative sampling noise into the
        CPU reading — utilization sampled from /proc is jittery, which
        is why the paper finds CPU-based balancing decisions noisy and
        unpredictable (section 6.2.1, Figure 10a's error bars).
        """
        cpu = self.cpu_util(now)
        if cpu_noise_rng is not None:
            cpu = min(1.0, cpu * cpu_noise_rng.uniform(0.7, 1.3))
        return {
            "load": self.request_rate(now),
            "cpu": cpu,
            "req_rate": self.request_rate(now),
            "direct_rate": self.direct.get(now),
        }
