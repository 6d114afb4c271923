"""RPC tracing: span trees over simulated time.

One client operation fans out across daemons — a ZLog append touches
the client, possibly the MDS (capability grant), and one or more OSDs
(objclass execution plus replication).  The trace layer stitches those
hops into a single causally-ordered tree:

* a **root span** opens when client code runs under
  ``Daemon.traced(...)``;
* the active :class:`SpanContext` is stamped onto every outgoing
  request/cast envelope (``Envelope.trace``);
* the receiving daemon opens a **child span** for its handler and
  propagates further, so nesting follows the actual RPC causality;
* all spans land in one :class:`TraceCollector` shared through the
  simulator (``sim.trace_collector``), which can render the tree or
  extract the critical path in simulated time.

This is the blkin/OpTracker role in real Ceph, minus the wall clock:
simulated time makes span math exact and runs reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class SpanContext:
    """The (trace id, span id) pair carried on the wire."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def wire(self) -> Dict[str, int]:
        """Envelope encoding (plain dict: survives an envelope copy)."""
        return {"trace": self.trace_id, "span": self.span_id}

    def __repr__(self) -> str:
        return f"SpanContext(trace={self.trace_id}, span={self.span_id})"


class Span:
    """One timed unit of work on one daemon."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "daemon",
                 "src", "kind", "start", "end", "error")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, daemon: str,
                 start: float, src: Optional[str] = None,
                 kind: Optional[str] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.daemon = daemon
        self.src = src
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "daemon": self.daemon,
            "src": self.src,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "error": self.error,
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r} on {self.daemon} "
                f"[{self.start:.6f}..{self.end}])")


class TraceCollector:
    """Cluster-wide span store, shared through the simulator.

    IDs are plain monotonic integers — the simulator is the single
    authority, so uniqueness needs no randomness and traces replay
    byte-identically across runs (the determinism contract).
    """

    def __init__(self, sim: Any):
        self.sim = sim
        self._spans: Dict[int, Span] = {}
        self._by_trace: Dict[int, List[int]] = {}
        self._next_trace = 1
        self._next_span = 1

    @classmethod
    def of(cls, sim: Any) -> "TraceCollector":
        """The simulator's collector, created and attached on demand."""
        if sim.trace_collector is None:
            sim.trace_collector = cls(sim)
        return sim.trace_collector

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def begin_trace(self, name: str, daemon: str) -> SpanContext:
        """Open a new root span; returns its context for propagation."""
        trace_id = self._next_trace
        self._next_trace += 1
        span = self._open(trace_id, None, name, daemon)
        return SpanContext(trace_id, span.span_id)

    def start_span(self, name: str, daemon: str, trace_id: int,
                   parent_id: int, src: Optional[str] = None,
                   kind: Optional[str] = None) -> Span:
        """Open a child span under ``parent_id`` (an RPC hop landing)."""
        return self._open(trace_id, parent_id, name, daemon,
                          src=src, kind=kind)

    def _open(self, trace_id: int, parent_id: Optional[int], name: str,
              daemon: str, src: Optional[str] = None,
              kind: Optional[str] = None) -> Span:
        span_id = self._next_span
        self._next_span += 1
        span = Span(trace_id, span_id, parent_id, name, daemon,
                    start=self.sim.now, src=src, kind=kind)
        self._spans[span_id] = span
        self._by_trace.setdefault(trace_id, []).append(span_id)
        return span

    def finish(self, span_id: int,
               error: Optional[BaseException] = None) -> None:
        span = self._spans.get(span_id)
        if span is None or span.finished:
            return
        span.end = self.sim.now
        if error is not None:
            span.error = repr(error)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def trace_ids(self) -> List[int]:
        return sorted(self._by_trace)

    def spans(self, trace_id: int) -> List[Span]:
        """All spans of one trace, ordered by start time then id."""
        ids = self._by_trace.get(trace_id, [])
        return sorted((self._spans[i] for i in ids),
                      key=lambda s: (s.start, s.span_id))

    def tree(self, trace_id: int) -> List[Dict[str, Any]]:
        """Nested ``{"span": ..., "children": [...]}`` forest.

        Normally a single root; multiple roots appear only if spans
        were collected for a parent that lives in another (reset)
        collector generation.
        """
        nodes = {s.span_id: {"span": s.to_dict(), "children": []}
                 for s in self.spans(trace_id)}
        roots = []
        for span in self.spans(trace_id):
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id)
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def render(self, trace_id: int) -> str:
        """Human-readable indented span tree with simulated timings."""
        lines: List[str] = []

        def _fmt(span: Dict[str, Any]) -> str:
            dur = span["duration"]
            dur_s = f"{dur * 1e6:10.1f}us" if dur is not None else "   (open)"
            via = f" <- {span['src']}" if span["src"] else ""
            err = f"  ERROR {span['error']}" if span["error"] else ""
            return (f"{dur_s}  @{span['start'] * 1e3:9.3f}ms  "
                    f"{span['daemon']}: {span['name']}{via}{err}")

        def _walk(node: Dict[str, Any], depth: int) -> None:
            lines.append("  " * depth + _fmt(node["span"]))
            for child in node["children"]:
                _walk(child, depth + 1)

        for root in self.tree(trace_id):
            _walk(root, 0)
        return "\n".join(lines)

    def critical_path(self, trace_id: int) -> List[Dict[str, Any]]:
        """Root-to-leaf chain through the latest-finishing child.

        The classic critical-path heuristic: at each level, descend
        into the child whose end time bounds the parent's — the hop
        the op was actually waiting on.
        """
        roots = self.tree(trace_id)
        if not roots:
            return []
        path = []
        node = roots[0]
        while True:
            path.append(node["span"])
            children = [c for c in node["children"]
                        if c["span"]["end"] is not None]
            if not children:
                return path
            node = max(children, key=lambda c: c["span"]["end"])

    def reset(self) -> None:
        """Drop all collected spans (``telemetry.reset`` at cluster level)."""
        self._spans.clear()
        self._by_trace.clear()
