"""Run one workload in this process and print its metrics.

The benchmark's entry point::

    python3 bench/run.py --workload seq_cached --seed 62 --seconds 10 --trace 0

``--trace 0`` times repetitions for ``--seconds`` with every observer
off and prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics instead.  A table goes to standard output first; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when an output
check fails or the program under test is missing.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int,
                        help="default: the workload's baseline seed")
    parser.add_argument("--seconds", type=float,
                        help="host seconds of timed repetitions "
                             "(default: --reps repetitions)")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every size (smoke tests)")
    parser.add_argument("--out", help="also write the full result here")
    return parser.parse_args(argv)


def show(result) -> None:
    stamp = result["stamp"]
    print(f"== {result['workload']} ({result['kind']}) seed "
          f"{stamp['seed']} scale {stamp['scale']} at "
          f"{stamp['git_sha'][:12]}, python {stamp['python']}, "
          f"nproc {stamp['nproc']}")
    print(f"   sizes {json.dumps(stamp['sizes'])}")
    for name, m in result["metrics"].items():
        print(f"   {name:42s} {m['value']:>16.6g} {m['unit']}")
    if result["kind"] == "run":
        print(f"   {stamp['reps']} timed repetitions, rep_spread "
              f"{stamp['rep_spread']:.3f}, {stamp['lat_samples']} latency "
              f"samples, sim_digest {result['sim_digest']}")
    changed = result["detail"].get("observers_changing_digest")
    if changed:
        print(f"   observers that changed the simulated behaviour: "
              f"{', '.join(changed)}")
    print(f"   outputs correct; {result['failed']} of "
          f"{result['attempted']} ops failed")


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    started = perf_counter()
    from bench.harness import CheckFailed, measure
    from bench.workloads import WORKLOADS
    import_s = perf_counter() - started
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workload.seed if args.seed is None else args.seed
    try:
        if args.trace:
            from bench.layers import per_layer
            result = per_layer(workload, seed, args.scale)
        else:
            result = measure(workload, seed, scale=args.scale,
                             reps=args.reps, seconds=args.seconds,
                             import_s=import_s)
    except CheckFailed as exc:
        print(f"bench: output check failed: {exc}", file=sys.stderr)
        return 1
    show(result)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    # The last line carries exactly what BENCHMARK.json declares; the
    # table above and --out have the rest (README: "End-to-end metrics").
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m for name, m in result["metrics"].items()
                    if name in declared}}))
    return 0


if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory: make it the
    # checkout root, so that ``bench`` imports as the package it is.
    sys.path[0] = str(ROOT)
    sys.exit(main())
