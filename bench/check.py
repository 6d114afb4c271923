"""Compare two sets of results: the regression gate.

``python -m bench check A.json B.json`` reads two files written by
``python -m bench run --trace --out`` and judges B against A:

* the seed-stable counts per op (group (b)) must be equal;
* simulated metrics and ``sim_digest`` must repeat exactly, otherwise
  "simulated behaviour changed" is reported, and a simulated metric
  that got worse by more than 1% is a regression;
* host metrics pass or fail against their bound in ``BENCHMARK.json``;
  where the repetitions of either side spread wider than the bound the
  metric is *unresolved*, never "unchanged";
* ``failed_ops_frac`` may rise by 0.001 at most.

The exit code is 1 on any regression and 2 when the two files cannot
be compared (different seeds or sizes).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from bench import ROOT

#: Must repeat exactly between two runs of the same seed and size.
COUNTS = ("sim.events_per_op", "sim.msgs_per_op",
          "stdlib_copy.deepcopy_calls_per_op",
          "stdlib_copy.deepcopy_nodes_per_op", "store.commits_per_op",
          "monitor.paxos_commit_msgs")
#: Simulated metrics: exact under a seed; a regression beyond this.
SIMULATED = {"sim_ops_per_s": "higher", "sim_lat_p50_ms": "lower",
             "sim_lat_p99_ms": "lower"}
SIMULATED_BOUND = 0.01
#: Host metrics, with the stamp field holding their repetition spread;
#: their bounds are BENCHMARK.json's.
HOST = {"host_ops_per_s": "rep_spread", "setup_s": "setup_spread",
        "peak_rss_mb": None}
FAILED_FRAC_SLACK = 0.001

Row = Tuple[str, str, Any, Any, str]


def load(path: str) -> Dict[Tuple[str, str], Dict[str, Any]]:
    doc = json.loads(Path(path).read_text())
    results = doc["results"] if "results" in doc else [doc]
    return {(r["workload"], r["kind"]): r for r in results}


def bounds() -> Dict[str, Tuple[str, float]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"])
            for m in spec["end_to_end"]}


def value(result: Dict[str, Any], metric: str) -> float:
    return result["metrics"][metric]["value"]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (a - b) / a if better == "higher" else (b - a) / a


def judge(a: Dict[str, Any], b: Dict[str, Any],
          limits: Dict[str, Tuple[str, float]]) -> List[Row]:
    """Verdict rows for one workload's pair of results of one kind."""
    name = a["workload"]
    rows: List[Row] = []
    if a["sim_digest"] != b["sim_digest"]:
        rows.append((name, "sim_digest", a["sim_digest"], b["sim_digest"],
                     "simulated behaviour changed"))
    if a["kind"] == "trace":
        for m in COUNTS:
            x, y = value(a, m), value(b, m)
            rows.append((name, m, x, y,
                         "ok" if x == y else "REGRESSION: count changed"))
        return rows
    for m, spread_field in HOST.items():
        better, bound = limits[m]
        x, y = value(a, m), value(b, m)
        worse = worse_by(x, y, better)
        spread = max(r["stamp"][spread_field] for r in (a, b)) \
            if spread_field else 0.0
        if spread > bound:
            verdict = (f"unresolved: repetitions spread {spread:.1%} > "
                       f"bound {bound:.0%}")
        elif worse > bound:
            verdict = f"REGRESSION: {worse:+.1%} worse > {bound:.0%}"
        else:
            verdict = f"ok ({-worse:+.1%})"
        rows.append((name, m, x, y, verdict))
    for m, better in SIMULATED.items():
        x, y = value(a, m), value(b, m)
        worse = worse_by(x, y, better)
        if x == y:
            verdict = "ok (exact)"
        elif worse > SIMULATED_BOUND:
            verdict = (f"REGRESSION: simulated behaviour changed, "
                       f"{worse:+.1%} worse > {SIMULATED_BOUND:.0%}")
        else:
            verdict = f"simulated behaviour changed ({-worse:+.2%})"
        rows.append((name, m, x, y, verdict))
    x, y = value(a, "failed_ops_frac"), value(b, "failed_ops_frac")
    rows.append((name, "failed_ops_frac", x, y,
                 "ok" if y <= x + FAILED_FRAC_SLACK
                 else f"REGRESSION: +{y - x:.4f} > {FAILED_FRAC_SLACK}"))
    return rows


def check(path_a: str, path_b: str) -> int:
    a, b = load(path_a), load(path_b)
    limits = bounds()
    rows: List[Row] = []
    for key in sorted(a.keys() & b.keys()):
        same = all(a[key]["stamp"][f] == b[key]["stamp"][f]
                   for f in ("seed", "scale", "sizes"))
        if not same:
            print(f"bench check: {key[0]} ({key[1]}) was measured with "
                  "different seeds or sizes; not comparable")
            return 2
        rows.extend(judge(a[key], b[key], limits))
    for key in sorted(a.keys() ^ b.keys()):
        print(f"bench check: {key[0]} ({key[1]}) is in one file only")
    for workload, metric, x, y, verdict in rows:
        if isinstance(x, float):
            x, y = f"{x:.6g}", f"{y:.6g}"
        print(f"{workload:14s} {metric:36s} {x:>16} {y:>16}  {verdict}")
    regressions = sum(v.startswith("REGRESSION") for *_, v in rows)
    unresolved = sum(v.startswith("unresolved") for *_, v in rows)
    print(f"bench check: {len(rows)} comparisons, {regressions} "
          f"regressions, {unresolved} unresolved")
    return 1 if regressions else 0
