"""repro.chaos: the deterministic chaos/nemesis engine.

Composable fault schedules (:mod:`repro.chaos.ops`), an engine that
interprets them against a live cluster (:mod:`repro.chaos.engine`),
invariant oracles that turn a run into a verdict
(:mod:`repro.chaos.oracles`), shipped scenarios
(:mod:`repro.chaos.scenarios`), and a seed-sweep runner with a ddmin
schedule minimizer (:mod:`repro.chaos.sweep`,
:mod:`repro.chaos.minimize`).  CLI: ``python -m repro.chaos``.
"""

from repro.chaos.engine import NemesisEngine
from repro.chaos.minimize import minimize_case, minimize_schedule, \
    write_repro_artifact
from repro.chaos.ops import OP_KINDS, NemesisOp, NemesisSchedule
from repro.chaos.oracles import (
    ChangelogOracle,
    DurabilityOracle,
    ReplicaConvergenceOracle,
    RunVerdict,
    Violation,
    ZlogOracle,
)
from repro.chaos.runner import run_case
from repro.chaos.scenarios import SCENARIOS, Scenario
from repro.chaos.sweep import sweep

__all__ = [
    "OP_KINDS",
    "SCENARIOS",
    "ChangelogOracle",
    "DurabilityOracle",
    "NemesisEngine",
    "NemesisOp",
    "NemesisSchedule",
    "ReplicaConvergenceOracle",
    "RunVerdict",
    "Scenario",
    "Violation",
    "ZlogOracle",
    "minimize_case",
    "minimize_schedule",
    "run_case",
    "sweep",
    "write_repro_artifact",
]
