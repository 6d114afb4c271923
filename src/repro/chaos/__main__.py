"""CLI: ``python -m repro.chaos {list,run,sweep}``.

* ``list`` — the shipped scenarios and their op vocabularies;
* ``run`` — one scenario at one seed, optionally replaying a
  minimized-repro artifact via ``--schedule``;
* ``sweep`` — N seeds per scenario with ddmin minimization of
  failures into stamped artifacts (what CI's chaos job runs).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from repro.chaos.ops import OP_KINDS, NemesisSchedule
from repro.chaos.runner import run_case
from repro.chaos.scenarios import SCENARIOS
from repro.chaos.sweep import sweep


def _cmd_list(_args: argparse.Namespace) -> int:
    print("scenarios:")
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        print(f"  {name:<18} {s.description} "
              f"(duration {s.duration:g}s, "
              f"oracles: {', '.join(s.oracle_names)})")
    print("\nnemesis op kinds:")
    for kind in sorted(OP_KINDS):
        print(f"  {kind:<18} {OP_KINDS[kind]}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    schedule = None
    if args.schedule:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        # Accept either a bare schedule or a repro artifact wrapping one.
        schedule = NemesisSchedule.from_dict(doc.get("schedule", doc))
    verdict = run_case(args.scenario, args.seed, schedule=schedule)
    print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    return 0 if verdict.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenarios = args.scenarios.split(",") if args.scenarios else None
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    summary = sweep(scenarios=scenarios, seeds=seeds,
                    out_dir=args.out_dir,
                    minimize=not args.no_minimize,
                    log=lambda msg: print(msg, file=sys.stderr))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic chaos engine: nemesis schedules, "
                    "durability oracles, seed sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show scenarios and op kinds")

    p_run = sub.add_parser("run", help="run one scenario at one seed")
    p_run.add_argument("--scenario", required=True,
                       choices=sorted(SCENARIOS))
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--schedule", default=None,
                       help="JSON schedule (or repro artifact) to "
                            "replay instead of generating one")

    p_sweep = sub.add_parser("sweep", help="fuzz seeds per scenario")
    p_sweep.add_argument("--scenarios", default=None,
                         help="comma-separated names "
                              "(default: every shipped scenario)")
    p_sweep.add_argument("--seeds", type=int, default=20,
                         help="seeds per scenario (default 20)")
    p_sweep.add_argument("--seed-base", type=int, default=0,
                         help="first seed (default 0)")
    p_sweep.add_argument("--out-dir", default="chaos-artifacts",
                         help="where minimized repros are written")
    p_sweep.add_argument("--no-minimize", action="store_true",
                         help="skip ddmin on failures")

    args = parser.parse_args(argv)
    handlers: Any = {"list": _cmd_list, "run": _cmd_run,
                     "sweep": _cmd_sweep}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
