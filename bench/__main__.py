"""``python -m bench``: run, trace, micro and check.

::

    python -m bench run --all [--seed N] [--trace] [--out A.json]
    python -m bench trace fs_create
    python -m bench micro
    python -m bench check A.json B.json

``run`` and ``trace`` start ``bench/run.py`` once per workload, so each
workload is measured in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any, Dict, List

from bench import ROOT
from bench.check import check

RESULTS = ROOT / "bench" / "results"


def child(workload: str, trace: bool, args: argparse.Namespace
          ) -> Dict[str, Any]:
    """One workload in its own process; returns its full result."""
    kind = "trace" if trace else "run"
    out = RESULTS / f"{kind}-{workload}.json"
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", workload, "--trace", str(int(trace)),
               "--scale", str(args.scale), "--reps", str(args.reps),
               "--out", str(out)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    # The child's table is the report; its last line is for machines.
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    print("\n".join(done.stdout.splitlines()[:-1]))
    if done.returncode:
        raise SystemExit(done.returncode)
    return json.loads(out.read_text())


def run(args: argparse.Namespace) -> int:
    from bench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.all else args.workloads
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or not names:
        print(f"bench: name workloads from {', '.join(WORKLOADS)}, "
              "or pass --all", file=sys.stderr)
        return 2
    results: List[Dict[str, Any]] = []
    for name in names:
        if args.command == "run":
            results.append(child(name, False, args))
        if args.command == "trace" or args.trace:
            results.append(child(name, True, args))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"results": results}, fh, indent=1)
            fh.write("\n")
    return 0


def micro(args: argparse.Namespace) -> int:
    from bench.micro import micro as rows

    for name, m in rows(args.scale).items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        p = sub.add_parser(name)
        p.add_argument("workloads", nargs="*")
        p.add_argument("--all", action="store_true")
        p.add_argument("--seed", type=int)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--reps", type=int, default=3)
        p.add_argument("--seconds", type=float)
        p.add_argument("--trace", action="store_true",
                       help="run: also the per-layer pass")
        p.add_argument("--out", help="write every result to one file")
        p.set_defaults(fn=run)
    p = sub.add_parser("micro")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=micro)
    p = sub.add_parser("check")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=lambda args: check(args.a, args.b))
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
