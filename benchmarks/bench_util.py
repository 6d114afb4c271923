"""Shared plumbing for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation: it runs the experiment on the simulated cluster, prints a
paper-vs-measured comparison, persists the same table under
``benchmarks/results/<name>.txt``, and asserts the *shape* claims
(who wins, rough factors, crossovers) — never absolute numbers, since
the substrate is a simulator rather than the authors' testbed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.analysis.provenance import git_sha

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Version of the results-JSON envelope.  Bump when the meaning or
#: layout of the stamped fields changes, so trajectory tooling can
#: refuse to compare incomparable documents.
RESULTS_SCHEMA_VERSION = 1


def emit(name: str, lines: Iterable[str]) -> str:
    """Print a result block and persist it for the record."""
    text = "\n".join(lines)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def emit_json(name: str, payload: Dict[str, Any],
              cluster: Optional[Any] = None,
              path: Optional[str] = None) -> str:
    """Persist a machine-readable result under ``results/<name>.json``.

    ``payload`` carries the benchmark's own summary (throughput,
    latency, whatever the figure measures).  When a cluster is passed,
    its end-of-run health report is appended — out-of-band, so the
    measured run is unchanged.  Every document is stamped with the
    results schema version and the git SHA it was produced at, so perf
    trajectories are comparable across PRs.  ``path`` overrides the
    destination.
    """
    doc = {"benchmark": name,
           "schema_version": RESULTS_SCHEMA_VERSION,
           "git_sha": git_sha(),
           **payload}
    if cluster is not None:
        doc["cluster_health"] = _cluster_health(cluster)
    if path is None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    return path


def _cluster_health(cluster: Any) -> Dict[str, Any]:
    try:
        report = cluster.health()
    # mal: disable=MAL004 -- a dead cluster is itself a benchmark
    # result; the report records the failure instead of aborting
    except Exception as exc:
        return {"status": "HEALTH_ERR",
                "error": f"{type(exc).__name__}: {exc}"}
    return report


def table(headers: Sequence[str], rows: Sequence[Sequence]) -> List[str]:
    """Fixed-width text table."""
    cols = [[str(h)] + [str(r[i]) for r in rows]
            for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in cols]
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out.extend(fmt(r) for r in rows)
    return out
