"""Closed-loop sequencer workloads (the evaluation's driver).

Two shapes cover all of sections 6.1 and 6.2:

* :class:`LeaseContentionWorkload` — a handful of clients hammering
  ONE sequencer under a cacheable lease policy; measures per-operation
  latency and the capability interleaving trace (Figures 5-7);
* :class:`SequencerWorkload` — several sequencers each with their own
  client group, in round-trip mode so load lands on the MDSs; measures
  throughput over time per sequencer and cluster-wide (Figures 9, 10,
  12).

Clients are closed-loop: each issues its next request when the
previous completes, so throughput responds to server load the way the
paper's clients do.
"""

from __future__ import annotations

from typing import (Any, Dict, Generator, Iterable, List, Optional,
                    Tuple)

from repro.errors import AlreadyExists, MalacologyError
from repro.mds.client import PositionTrace
from repro.util.stats import ThroughputSeries


class SequencerWorkload:
    """N sequencers × M clients each, measuring throughput over time."""

    def __init__(self, cluster: Any, num_sequencers: int = 3,
                 clients_per_seq: int = 4, base: str = "/seqbench",
                 window: float = 1.0):
        self.cluster = cluster
        self.num_sequencers = num_sequencers
        self.clients_per_seq = clients_per_seq
        self.base = base
        self.total = ThroughputSeries(window=window)
        self.per_seq: List[ThroughputSeries] = [
            ThroughputSeries(window=window) for _ in range(num_sequencers)]
        self._procs: List[Any] = []
        self._clients: List[Any] = []
        self._stop = False

    # ------------------------------------------------------------------
    def seq_path(self, idx: int) -> str:
        return f"{self.base}/seq{idx}"

    def setup(self, lease_mode: str = "round-trip",
              min_hold: float = 0.0, quota: int = 0,
              max_hold: float = 0.25) -> None:
        """Create the sequencers and set the cluster lease policy."""
        from repro.core import SharedResourceInterface

        c = self.cluster
        shared = SharedResourceInterface(c.admin)
        c.do(shared.set_lease_policy(lease_mode, min_hold=min_hold,
                                     quota=quota, max_hold=max_hold))
        try:
            c.do(c.admin.fs_mkdir(self.base))
        except AlreadyExists:
            pass
        for i in range(self.num_sequencers):
            try:
                c.do(c.admin.fs_create(self.seq_path(i),
                                       file_type="sequencer"))
            except AlreadyExists:
                pass

    def start(self) -> None:
        """Spawn all client loops (they run until :meth:`stop`)."""
        self._stop = False
        for seq_idx in range(self.num_sequencers):
            for client_idx in range(self.clients_per_seq):
                client = self.cluster.new_client(
                    f"wl-s{seq_idx}-c{client_idx}")
                self._clients.append(client)
                proc = client.spawn(
                    self._client_loop(client, seq_idx),
                    name=f"wl:{seq_idx}:{client_idx}")
                self._procs.append(proc)

    def _client_loop(self, client: Any, seq_idx: int) -> Generator:
        # Per-op latency lands in each client's "seq.next" telemetry
        # tracker (recorded inside seq_next itself); only the
        # throughput binning stays here, since it is windowed by
        # completion *time*, which counters do not keep.
        path = self.seq_path(seq_idx)
        while not self._stop:
            try:
                yield from client.seq_next(path)
            except MalacologyError:
                continue  # transient (migration freeze etc.); retry
            now = client.sim.now
            self.total.record(now)
            self.per_seq[seq_idx].record(now)

    def stop(self) -> None:
        self._stop = True
        for proc in self._procs:
            proc.cancel()
        self._procs.clear()

    # ------------------------------------------------------------------
    @property
    def latencies(self) -> List[float]:
        """All per-op latencies, pulled from client telemetry."""
        return [s for c in self._clients
                for s in c.perf.samples("seq.next")]

    def mean_rate(self, start: float = 0.0,
                  end: float = float("inf")) -> float:
        return self.total.mean_rate(start, end)


class LeaseContentionWorkload:
    """A few clients contending for ONE cacheable sequencer.

    Per-client position traces land in each client's ``seq_trace``
    (used for the Figure 5 interleaving analysis); per-op latencies
    come from each client's ``seq.next`` telemetry tracker — the
    workload keeps no accounting of its own.
    """

    def __init__(self, cluster: Any, clients: int = 2,
                 path: str = "/leasebench/seq"):
        self.cluster = cluster
        self.num_clients = clients
        self.path = path
        self.clients: List[Any] = []
        self._procs: List[Any] = []
        self._stop = False

    def setup(self, mode: str, min_hold: float = 0.0, quota: int = 0,
              max_hold: float = 0.25) -> None:
        from repro.core import SharedResourceInterface

        c = self.cluster
        c.do(SharedResourceInterface(c.admin).set_lease_policy(
            mode, min_hold=min_hold, quota=quota, max_hold=max_hold))
        parent = self.path.rsplit("/", 1)[0]
        try:
            c.do(c.admin.fs_mkdir(parent))
        except AlreadyExists:
            pass
        try:
            c.do(c.admin.fs_create(self.path, file_type="sequencer"))
        except AlreadyExists:
            pass

    def start(self) -> None:
        self._stop = False
        for i in range(self.num_clients):
            client = self.cluster.new_client(f"lease-c{i}")
            self.clients.append(client)
            proc = client.spawn(self._loop(client, i), name=f"lease:{i}")
            self._procs.append(proc)

    def _loop(self, client: Any, idx: int) -> Generator:
        while not self._stop:
            try:
                yield from client.seq_next(self.path)
            except MalacologyError:
                continue

    def stop(self) -> None:
        self._stop = True
        for proc in self._procs:
            proc.cancel()
        self._procs.clear()

    @property
    def latencies(self) -> List[List[float]]:
        """Per-client latency samples, from client telemetry."""
        return [c.perf.samples("seq.next") for c in self.clients]

    @property
    def ops_done(self) -> List[int]:
        return [c.perf.latency("seq.next").count for c in self.clients]

    def all_latencies(self) -> List[float]:
        return [lat for per_client in self.latencies for lat in per_client]

    def total_ops(self) -> int:
        return sum(self.ops_done)

    def traces(self) -> List[PositionTrace]:
        """Each client's own position trace (not a copy)."""
        return [c.seq_trace for c in self.clients]


def interleaving_runs(traces: Iterable[Iterable[Tuple[float, int]]]
                      ) -> List[int]:
    """Lengths of consecutive-position runs per holder (Figure 5).

    Merge all clients' (position -> client) claims, order by position,
    and measure how long each client kept the capability before it
    bounced.  Long runs = the lease policy let holders batch; run
    length 1 everywhere = pathological ping-ponging.
    """
    owner_by_pos: Dict[int, int] = {}
    for idx, trace in enumerate(traces):
        for _, pos in trace:
            owner_by_pos[pos] = idx
    runs: List[int] = []
    current_owner: Optional[int] = None
    current_len = 0
    for pos in sorted(owner_by_pos):
        owner = owner_by_pos[pos]
        if owner == current_owner:
            current_len += 1
        else:
            if current_len:
                runs.append(current_len)
            current_owner = owner
            current_len = 1
    if current_len:
        runs.append(current_len)
    return runs
