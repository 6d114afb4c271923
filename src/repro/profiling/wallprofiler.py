"""Host wall-clock and allocation profiler for the kernel hot path.

Where :mod:`repro.profiling.simprofiler` answers "what did the cluster
do in simulated time", this plane answers "where did the *host's* time
and memory actually go" — the question ROADMAP item 1's kernel rewrite
must be judged by.  It attributes real nanoseconds and interpreter
allocation-block deltas to every **kernel dispatch** (the heapq pop +
callback invocation), keyed by what the callback is:

* a process step, by process name (e.g. ``mds0:fs_open``) — the
  generator trampoline, including every resumed generator handler;
* a network delivery, by ``<dst>:<method>`` — the receiving daemon's
  dispatch plus its handler's synchronous part, which runs inline;
* a timer or future callback, by qualified name; a deadline by the
  callback its lane fired (e.g. ``Daemon._expire``), and a lane wake
  whose deadline was cancelled as ``cancelled deadline``.

The kernel's dispatch step is the plane's only call site, so no key
nests inside another and every key's share is of the same total.

All clock reads go through :mod:`repro.profiling.hostclock` (the one
sanctioned MAL001-waived boundary).  Readings never influence the
schedule: wall profiling on/off leaves the event tape byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.profiling.hostclock import host_alloc_blocks, host_perf_ns
from repro.sim.kernel import DeadlineLane

#: A begin() token: (wall ns, allocated blocks) at entry.
Token = Tuple[int, int]


class WallStat:
    """Accumulated host cost for one attribution key."""

    __slots__ = ("count", "wall_ns", "alloc_blocks")

    def __init__(self) -> None:
        self.count = 0
        self.wall_ns = 0
        self.alloc_blocks = 0

    def add(self, wall_ns: int, alloc_blocks: int) -> None:
        self.count += 1
        self.wall_ns += wall_ns
        self.alloc_blocks += alloc_blocks

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "wall_ns": self.wall_ns,
                "alloc_blocks": self.alloc_blocks}


class WallClockProfiler:
    """Accumulates host-time/allocation attribution; attached at
    ``sim.wall_profiler`` (``None`` when off — the kernel fast path)."""

    def __init__(self, sim: Any):
        self.sim = sim
        #: ("dispatch", kind, name) -> accumulated cost.
        self._stats: Dict[Tuple[str, str, str], WallStat] = {}
        self.started_ns = host_perf_ns()

    # ------------------------------------------------------------------
    # Hot-path hooks
    # ------------------------------------------------------------------
    def begin(self) -> Token:
        return (host_perf_ns(), host_alloc_blocks())

    def end_dispatch(self, token: Token, call: Any) -> None:
        """Charge one kernel dispatch to the callback's identity."""
        key = self._dispatch_key(call)
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = WallStat()
        stat.add(host_perf_ns() - token[0],
                 host_alloc_blocks() - token[1])

    def _dispatch_key(self, call: Any) -> Tuple[str, str, str]:
        if type(call) is DeadlineLane:
            call = call.fired
            if call is None:
                return ("dispatch", "callback", "cancelled deadline")
        fn = call.fn
        bound_to = getattr(fn, "__self__", None)
        fn_name = getattr(fn, "__name__", "callback")
        cls = type(bound_to).__name__ if bound_to is not None else ""
        if cls == "Process":
            # Process names are "<daemon>:<method>"-shaped and bounded
            # in cardinality; they are the trampoline's identity.
            return ("dispatch", "process",
                    getattr(bound_to, "name", "proc"))
        if cls == "Network" and fn_name == "_deliver":
            dst, env = call.args
            method = getattr(env, "method", None) or "message"
            return ("dispatch", "deliver", f"{dst}:{method}")
        if cls == "Future":
            return ("dispatch", "future", fn_name)
        where = f"{cls}.{fn_name}" if cls else fn_name
        return ("dispatch", "callback", where)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_ns(self) -> int:
        """Attributed wall nanoseconds across all keys."""
        return sum(s.wall_ns for s in self._stats.values())

    def hotspots(self, n: int = 10) -> List[Dict[str, Any]]:
        """Top-``n`` attribution keys by accumulated wall time."""
        total = self.total_ns() or 1
        ranked = sorted(self._stats.items(),
                        key=lambda kv: (-kv[1].wall_ns, kv[0]))
        out = []
        for (plane, kind, name), stat in ranked[:n]:
            out.append({
                "plane": plane, "kind": kind, "name": name,
                **stat.to_dict(),
                "share": stat.wall_ns / total,
                "mean_ns": stat.wall_ns / stat.count if stat.count else 0,
            })
        return out

    def collapsed_stacks(self) -> str:
        """Flamegraph-ready collapsed-stack dump.

        One ``frame;frame;frame value`` line per attribution key, value
        in integer nanoseconds — feed straight to ``flamegraph.pl`` or
        speedscope.  The synthetic root frame is ``kernel``.
        """
        lines = []
        for (plane, kind, name), stat in sorted(self._stats.items()):
            frame = name.replace(";", "_").replace(" ", "_")
            lines.append(f"kernel;{plane};{kind};{frame} {stat.wall_ns}")
        return "\n".join(lines)

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """``"plane:kind:name" -> stats`` for every key (sorted)."""
        return {f"{p}:{k}:{n}": s.to_dict()
                for (p, k, n), s in sorted(self._stats.items())}

    def dump(self) -> Dict[str, Any]:
        elapsed = host_perf_ns() - self.started_ns
        attributed = self.total_ns()
        return {
            "elapsed_ns": elapsed,
            "attributed_ns": attributed,
            "attributed_share": attributed / elapsed if elapsed else 0.0,
            "hotspots": self.hotspots(10),
            "stats": self.stats(),
        }

    def reset(self) -> None:
        self._stats = {}
        self.started_ns = host_perf_ns()
