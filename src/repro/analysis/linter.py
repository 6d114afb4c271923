"""Static linter framework: findings, suppressions, rule driver.

The linter parses each file once (through the shared
:mod:`repro.analysis.astcache` plane, so a combined ``check`` run
shares the parse with the flow analyzer), hands the AST to every
registered rule, then reconciles the raw findings against inline
suppressions::

    risky_call()  # mal: disable=MAL001 -- replaying a recorded clock

A suppression comment on its own line covers the next source line.
Suppression hygiene is itself linted (MAL008): malformed comments,
unknown codes, and suppressions that no longer match a finding are all
reported, so waivers cannot rot silently.  MAL008 cannot be
suppressed.

The unused-waiver sweep runs unconditionally over every analyzed file
— not just files that produced findings — but is *scoped to the codes
the current pass actually checks*: a ``lint`` run never flags a waiver
of a flow code (MAL010+) as unused, and a ``flow`` run never flags a
lint waiver; a combined ``check`` run sweeps both.  Codes outside the
catalogue entirely are always malformed.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.astcache import DEFAULT_CACHE, SourceFile, expand_paths

#: Stable rule-code shape; codes outside this shape are malformed.
CODE_RE = re.compile(r"MAL\d{3}$")

#: The full MAL catalogue.  Codes are never reused; a suppression of a
#: code outside this tuple is malformed no matter which pass runs.
#: MAL001-008 are the file-local lint rules (plus framework hygiene),
#: MAL010-018 the whole-program message-flow rules.
KNOWN_CODES: Tuple[str, ...] = (
    "MAL001", "MAL002", "MAL003", "MAL004", "MAL005", "MAL006",
    "MAL007", "MAL008",
    "MAL010", "MAL011", "MAL012", "MAL013", "MAL014", "MAL015",
    "MAL016", "MAL017", "MAL018",
)

#: Directive comments look like ``mal: disable=MAL001 -- reason``
#: (after the hash sign that makes them a comment).
_MAL_COMMENT = re.compile(r"#\s*mal:(?P<rest>.*)$")
_DISABLE = re.compile(
    r"^\s*disable=(?P<codes>[A-Za-z0-9,\s]+?)\s*(?:--\s*(?P<reason>.*))?$")

HYGIENE_CODE = "MAL008"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    name: str
    message: str
    path: str
    line: int
    col: int = 0

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")

    def to_dict(self) -> Dict[str, object]:
        return {"code": self.code, "name": self.name,
                "message": self.message, "path": self.path,
                "line": self.line, "col": self.col}


class FileContext:
    """Everything a rule may need about one parsed source file."""

    def __init__(self, path: Path, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        parts = path.parts
        #: Inside the shipped package (vs tests/benchmarks/examples)?
        self.in_src = "src" in parts
        #: The simulation kernel is the one place allowed to touch the
        #: host ``random`` module: it derives the seeded streams.
        self.in_kernel = path.name == "kernel.py" and "sim" in parts
        #: The message layer itself constructs Envelopes and delivers
        #: them; rules about bypassing it do not apply to it.
        self.in_msg_layer = ("msg" in parts) or ("sim" in parts)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(code=rule.code, name=rule.name, message=message,
                       path=str(self.path),
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0))


class Rule:
    """Base class for lint rules.

    Subclasses set ``code``/``name``/``description`` and implement
    :meth:`check`.  ``scope`` limits where the rule runs: ``"all"``
    (default) or ``"src"`` for rules that only make sense inside the
    shipped package (tests legitimately reach into daemon internals).
    """

    code = "MAL000"
    name = "abstract"
    description = ""
    scope = "all"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def applies(self, ctx: FileContext) -> bool:
        return self.scope == "all" or ctx.in_src


@dataclass
class _Suppression:
    codes: Tuple[str, ...]
    comment_line: int      # where the comment physically sits
    target_line: int       # the line whose findings it waives
    used: Set[str]


def _comments(source: str) -> List[Tuple[int, str, bool]]:
    """All comment tokens: (line, text, standalone?).

    Tokenizing (rather than regex over raw lines) keeps mal-comment
    examples inside string literals from being parsed as directives.
    """
    out: List[Tuple[int, str, bool]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                standalone = tok.start[1] == 0 or \
                    tok.line[:tok.start[1]].strip() == ""
                out.append((tok.start[0], tok.string, standalone))
    except (tokenize.TokenError, IndentationError):
        pass  # the ast parse already reported the file as broken
    return out


class FileSuppressions:
    """Parsed ``# mal:`` comments for one file, plus hygiene findings.

    ``report_hygiene=False`` parses the waivers without re-reporting
    comment hygiene (malformed/unknown/non-suppressible): the flow
    pass filters its findings through the same waivers, but comment
    hygiene belongs to the lint pass so a combined run never reports
    it twice.
    """

    def __init__(self, path: Path, lines: Sequence[str],
                 report_hygiene: bool = True):
        self.hygiene: List[Finding] = []
        self.report_hygiene = report_hygiene
        self.by_line: Dict[int, List[_Suppression]] = {}
        for idx, text, standalone in _comments("\n".join(lines)):
            m = _MAL_COMMENT.search(text)
            if not m:
                continue
            d = _DISABLE.match(m.group("rest"))
            if not d:
                self._bad(path, idx, "malformed mal comment "
                          "(expected '# mal: disable=MALnnn -- reason')")
                continue
            codes = tuple(c.strip() for c in d.group("codes").split(",")
                          if c.strip())
            bad = [c for c in codes
                   if not CODE_RE.match(c) or c not in KNOWN_CODES]
            if bad or not codes:
                self._bad(path, idx,
                          f"unknown lint code(s) {bad or ['<none>']} "
                          "in suppression")
                codes = tuple(c for c in codes if c not in bad)
                if not codes:
                    continue
            if HYGIENE_CODE in codes:
                self._bad(path, idx,
                          f"{HYGIENE_CODE} (suppression hygiene) "
                          "cannot be suppressed")
                codes = tuple(c for c in codes if c != HYGIENE_CODE)
                if not codes:
                    continue
            # A trailing comment waives its own line; a standalone
            # comment waives the next code line (skipping the rest of
            # its own comment block).
            target = idx
            if standalone:
                target = idx + 1
                while target <= len(lines) and (
                        not lines[target - 1].strip()
                        or lines[target - 1].lstrip().startswith("#")):
                    target += 1
            sup = _Suppression(codes=codes, comment_line=idx,
                               target_line=target, used=set())
            self.by_line.setdefault(target, []).append(sup)

    def _bad(self, path: Path, line: int, message: str) -> None:
        if not self.report_hygiene:
            return
        self.hygiene.append(Finding(
            code=HYGIENE_CODE, name="suppression-hygiene",
            message=message, path=str(path), line=line))

    def filter(self, path: Path, findings: Iterable[Finding],
               active_codes: Optional[Set[str]] = None) -> List[Finding]:
        """Drop waived findings; flag unused waivers of active codes.

        ``active_codes`` names the codes the current pass actually
        checked on this file; a waiver of a code outside that set is
        simply not judged (another pass owns it).  ``None`` means all
        known codes are active (legacy single-pass behavior).
        """
        kept: List[Finding] = []
        for f in findings:
            sups = self.by_line.get(f.line, [])
            waived = False
            for sup in sups:
                if f.code in sup.codes:
                    sup.used.add(f.code)
                    waived = True
            if not waived:
                kept.append(f)
        for sups in self.by_line.values():
            for sup in sups:
                for code in sup.codes:
                    if code in sup.used:
                        continue
                    if active_codes is not None \
                            and code not in active_codes:
                        continue
                    self.hygiene.append(Finding(
                        code=HYGIENE_CODE, name="suppression-hygiene",
                        message=f"unused suppression of {code} "
                        "(no such finding on the target line)",
                        path=str(path), line=sup.comment_line))
        return kept


#: Backwards-compatible alias (pre-flow name).
_FileSuppressions = FileSuppressions


class Linter:
    """Drive a rule set over files and directories."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)
        codes = [r.code for r in self.rules]
        assert len(set(codes)) == len(codes), "duplicate rule codes"
        unknown = [c for c in codes if c not in KNOWN_CODES]
        assert not unknown, f"rules outside the catalogue: {unknown}"

    # ------------------------------------------------------------------
    def lint_source(self, source: str,
                    path: str = "<string>") -> List[Finding]:
        """Lint one in-memory source blob (test fixtures use this)."""
        sf = SourceFile(path=Path(path), source=source,
                        lines=source.splitlines())
        try:
            sf.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            sf.syntax_error = (exc.msg or "invalid syntax",
                               exc.lineno or 1)
        return self.lint_file(sf)

    def lint_paths(self, paths: Sequence[str],
                   jobs: int = 1) -> List[Finding]:
        if jobs > 1:
            findings = _lint_parallel(paths, jobs)
        else:
            findings = []
            for sf in DEFAULT_CACHE.files(paths):
                findings.extend(self.lint_file(sf))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings

    # ------------------------------------------------------------------
    def lint_file(self, sf: SourceFile) -> List[Finding]:
        if sf.read_error is not None:
            return [Finding(code=HYGIENE_CODE, name="unreadable",
                            message=f"cannot read file: {sf.read_error}",
                            path=str(sf.path), line=1)]
        if sf.syntax_error is not None:
            msg, line = sf.syntax_error
            return [Finding(code=HYGIENE_CODE, name="syntax-error",
                            message=f"cannot parse: {msg}",
                            path=str(sf.path), line=line)]
        ctx = FileContext(sf.path, sf.source, sf.tree)
        raw: List[Finding] = []
        active: Set[str] = {HYGIENE_CODE}
        for rule in self.rules:
            if rule.applies(ctx):
                active.add(rule.code)
                raw.extend(rule.check(ctx))
        sups = FileSuppressions(sf.path, ctx.lines)
        kept = sups.filter(sf.path, raw, active_codes=active)
        kept.extend(sups.hygiene)
        return kept


# ----------------------------------------------------------------------
# Parallel driver (``--jobs N``)
# ----------------------------------------------------------------------
_WORKER_LINTER: Optional[Linter] = None


def _init_worker(rules_factory: Callable[[], Sequence[Rule]]) -> None:
    global _WORKER_LINTER
    _WORKER_LINTER = Linter(rules_factory())


def _lint_one_path(path_str: str) -> List[Finding]:
    assert _WORKER_LINTER is not None
    from repro.analysis.astcache import parse_file

    return _WORKER_LINTER.lint_file(parse_file(Path(path_str)))


def _lint_parallel(paths: Sequence[str], jobs: int) -> List[Finding]:
    """Fan the per-file lint out over a process pool.

    Each worker parses and lints whole files, so the split is at file
    granularity and the merged result is byte-identical to a serial
    run after the final sort.  The workers rebuild the rule set from
    ``default_rules`` — per-file lint state never crosses files, so
    this is safe for any stateless rule catalogue.
    """
    import multiprocessing

    from repro.analysis.rules import default_rules

    files = [str(p) for p in expand_paths(paths)]
    if not files:
        return []
    findings: List[Finding] = []
    ctx = multiprocessing.get_context("fork") \
        if "fork" in multiprocessing.get_all_start_methods() \
        else multiprocessing.get_context()
    with ctx.Pool(processes=min(jobs, len(files)),
                  initializer=_init_worker,
                  initargs=(default_rules,)) as pool:
        for chunk in pool.map(_lint_one_path, files,
                              chunksize=max(1, len(files) // (jobs * 4))):
            findings.extend(chunk)
    return findings


def render_human(findings: Sequence[Finding]) -> str:
    lines = [f.render() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    from repro.analysis.provenance import stamp

    doc = stamp({"findings": [f.to_dict() for f in findings]})
    return json.dumps(doc, indent=1, sort_keys=True)
