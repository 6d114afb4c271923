"""Command line front end for the analysis tooling.

``python -m repro.analysis lint [paths] [--jobs N] [--json]``
    File-local MAL001-008 rules.

``python -m repro.analysis flow [paths] [--json] [--emit DIR]
                                 [--check DIR] [--docs FILE]``
    Whole-program message-flow analysis (MAL010-018), RPC-graph
    artifact emission, and the architecture-drift gate.

``python -m repro.analysis check [paths] [--jobs N] [--json]``
    Both passes over one shared parse of the tree.

Exit status 0 means no findings; 1 means findings or drift (usage
errors exit 2).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.analysis.astcache import DEFAULT_CACHE
from repro.analysis.linter import (
    FileSuppressions,
    Finding,
    Linter,
    render_human,
    render_json,
)
from repro.analysis.rules import default_rules


def _flow_pass(paths: List[str]) -> List[Finding]:
    """Run the flow analyzer and reconcile waivers.

    The unused-waiver sweep runs over *every* analyzed file, scoped to
    the flow codes — the lint pass owns comment hygiene and the lint
    codes, so a combined ``check`` run reports each problem once.
    """
    from repro.analysis import flow

    ex = flow.build(paths)
    design = flow.emit.repo_root() / "DESIGN.md"
    design_text = design.read_text() if design.is_file() else None
    raw = flow.flow_findings(ex, design_text=design_text)
    by_path: dict = {}
    for f in raw:
        by_path.setdefault(f.path, []).append(f)
    active: Set[str] = set(flow.FLOW_CODES)
    kept: List[Finding] = []
    for sf in ex.files:
        sups = FileSuppressions(sf.path, sf.lines,
                                report_hygiene=False)
        kept.extend(sups.filter(sf.path,
                                by_path.pop(str(sf.path), []),
                                active_codes=active))
        kept.extend(sups.hygiene)
    for leftovers in by_path.values():
        kept.extend(leftovers)    # findings on files outside the scan
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept


def _report(findings: List[Finding], as_json: bool) -> int:
    if as_json:
        print(render_json(findings))
    elif findings:
        print(render_human(findings))
    else:
        print("clean: no findings")
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Malacology correctness tooling")
    sub = parser.add_subparsers(dest="command")

    lint = sub.add_parser(
        "lint", help="run the MAL determinism/protocol lint rules")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON")
    lint.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="lint files on N worker processes")

    flow_p = sub.add_parser(
        "flow", help="whole-program message-flow analysis "
        "(MAL010-018) and RPC-graph artifacts")
    flow_p.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories "
                        "(default: src/repro)")
    flow_p.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    flow_p.add_argument("--graph", action="store_true",
                        help="print the stamped RPC-graph JSON "
                        "instead of findings")
    flow_p.add_argument("--emit", metavar="DIR",
                        help="write rpc-graph.json/.dot into DIR")
    flow_p.add_argument("--check", metavar="DIR",
                        help="drift gate: fail unless the artifacts "
                        "in DIR match a fresh extraction")
    flow_p.add_argument("--docs", metavar="FILE",
                        help="re-render the admin-command inventory "
                        "between the markers in FILE (DESIGN.md)")

    check = sub.add_parser(
        "check", help="lint + flow over one shared parse")
    check.add_argument("paths", nargs="*", default=["src/repro"],
                       help="files or directories "
                       "(default: src/repro)")
    check.add_argument("--json", action="store_true",
                       help="emit findings as JSON")
    check.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="lint files on N worker processes")

    args = parser.parse_args(argv)
    if args.command == "lint":
        linter = Linter(default_rules())
        findings = linter.lint_paths(args.paths or ["src"],
                                     jobs=args.jobs)
        return _report(findings, args.json)

    if args.command == "flow":
        from repro.analysis import flow

        paths = args.paths or ["src/repro"]
        status = 0
        ex = flow.build(paths)
        if args.emit:
            written = flow.emit.emit_artifacts(ex, Path(args.emit))
            for path in written:
                print(f"wrote {path}", file=sys.stderr)
        if args.docs:
            changed = flow.emit.inject_inventory(Path(args.docs), ex)
            print(f"{'updated' if changed else 'unchanged'} "
                  f"{args.docs}", file=sys.stderr)
        if args.check:
            errors = flow.emit.check_drift(ex, Path(args.check))
            for err in errors:
                print(f"drift: {err}", file=sys.stderr)
            if errors:
                status = 1
        if args.graph:
            print(flow.emit.render_json(flow.emit.graph_doc(ex)),
                  end="")
            return status
        # Findings run last so --docs updates (the MAL016 inventory)
        # are already in place for this same invocation.
        return max(status, _report(_flow_pass(paths), args.json))

    if args.command == "check":
        paths = args.paths or ["src/repro"]
        linter = Linter(default_rules())
        findings = linter.lint_paths(paths, jobs=args.jobs)
        findings.extend(_flow_pass(paths))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return _report(findings, args.json)

    parser.print_help()
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not our error.
        sys.exit(1)
