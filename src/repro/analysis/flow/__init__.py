"""Whole-program message-flow analyzer (``repro.analysis.flow``).

Builds the cross-daemon RPC graph — every daemon kind's handler table
joined with every resolved ``call``/``cast`` site — then checks the
MAL010-018 reply/future-discipline and architecture rules over it and
emits the committed ``docs/rpc-graph.{json,dot}`` artifacts.

Public surface::

    from repro.analysis.flow import build, flow_findings, FLOW_CODES

    ex = build(["src/repro"])          # Extraction (graph + mutations)
    findings = flow_findings(ex, design_text=Path("DESIGN.md").read_text())
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.astcache import DEFAULT_CACHE
from repro.analysis.flow.extract import Extraction, Extractor, extract
from repro.analysis.flow.model import (
    ANY_KIND,
    CallSite,
    FlowGraph,
    Handler,
)
from repro.analysis.flow.rules import FLOW_CODES, flow_findings
from repro.analysis.flow import emit

__all__ = [
    "ANY_KIND",
    "CallSite",
    "Extraction",
    "Extractor",
    "FLOW_CODES",
    "FlowGraph",
    "Handler",
    "build",
    "emit",
    "extract",
    "flow_findings",
]


def build(paths: Sequence[str]) -> Extraction:
    """Parse ``paths`` (via the shared AST cache) and extract the
    message-flow graph."""
    return extract(DEFAULT_CACHE.files(paths))
