"""Seed sweeps: fuzz scenarios across seeds, minimize what breaks.

The sweep is the chaos engine's front door: run every requested
scenario at every requested seed, collect verdicts, and for each
failing case delta-debug the schedule down to a minimal repro artifact
(``chaos-repro-<scenario>-<seed>.json``, provenance-stamped).  CI runs
a small fixed sweep and uploads the artifacts on failure; developers
re-run the artifact's ``replay`` command to get the exact failure
back.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from repro.chaos.minimize import minimize_case, write_repro_artifact
from repro.chaos.ops import NemesisSchedule
from repro.chaos.runner import run_case
from repro.chaos.scenarios import SCENARIOS


def sweep(scenarios: Optional[List[str]] = None,
          seeds: Optional[List[int]] = None,
          out_dir: str = "chaos-artifacts",
          minimize: bool = True,
          log: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
    """Run the sweep (default: every shipped scenario); returns a
    JSON-safe summary.

    ``summary["ok"]`` is True iff every case passed.  Failing cases are
    minimized (unless ``minimize=False``) and their artifact paths
    collected under ``summary["artifacts"]``.
    """
    say = log or (lambda _msg: None)
    names = list(scenarios or sorted(SCENARIOS))
    seed_list = list(seeds if seeds is not None else range(20))
    cases: List[Dict[str, Any]] = []
    artifacts: List[str] = []
    failures = 0
    for name in names:
        for seed in seed_list:
            verdict = run_case(name, seed)
            status = "ok" if verdict.ok else "FAIL"
            say(f"{name} seed={seed}: {status}")
            case: Dict[str, Any] = {
                "scenario": name, "seed": seed, "ok": verdict.ok}
            if not verdict.ok:
                failures += 1
                case["violations"] = [v.to_dict()
                                      for v in verdict.violations]
                case["error"] = verdict.error
                schedule = NemesisSchedule.from_dict(
                    verdict.stats["schedule"])
                if minimize:
                    say(f"{name} seed={seed}: minimizing "
                        f"{len(schedule.ops)}-op schedule...")
                    minimal, final, runs = minimize_case(
                        name, seed, schedule, log=say)
                    path = os.path.join(
                        out_dir, f"chaos-repro-{name}-{seed}.json")
                    write_repro_artifact(path, name, seed, schedule,
                                         minimal, final, runs)
                    say(f"{name} seed={seed}: minimized to "
                        f"{len(minimal.ops)} ops in {runs} runs "
                        f"-> {path}")
                    artifacts.append(path)
                    case["artifact"] = path
                    case["minimized_ops"] = len(minimal.ops)
            cases.append(case)
    return {
        "ok": failures == 0,
        "cases": len(cases),
        "failures": failures,
        "scenarios": names,
        "seeds": seed_list,
        "results": cases,
        "artifacts": artifacts,
    }
