"""Correctness tooling for the Malacology reproduction.

Two layers guard the repo's foundational contracts:

* a **static AST linter** (:mod:`repro.analysis.linter`,
  :mod:`repro.analysis.rules`) that enforces the determinism contract
  of :mod:`repro.sim.kernel` at review time — run it with
  ``python -m repro.analysis lint src tests benchmarks``;
* **runtime protocol sanitizers** (:mod:`repro.analysis.sanitizers`)
  that watch Paxos agreement, capability exclusivity, ZLog epoch
  fencing, and subtree-migration ownership while a simulation runs —
  opt in with ``MalacologyCluster.build(sanitize=True)`` or
  ``MALACOLOGY_SANITIZE=1``.
"""

from repro.analysis.linter import Finding, Linter, Rule
from repro.analysis.rules import default_rules
from repro.analysis.sanitizers import (
    ProtocolViolation,
    SanitizerRegistry,
    install_sanitizers,
)

__all__ = [
    "Finding",
    "Linter",
    "Rule",
    "default_rules",
    "ProtocolViolation",
    "SanitizerRegistry",
    "install_sanitizers",
]
