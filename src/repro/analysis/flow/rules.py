"""Whole-program message-flow rules (MAL010-MAL018).

Unlike the file-local MAL001-007 lint rules, these run over the
:class:`~repro.analysis.flow.extract.Extraction` — the cross-daemon
RPC graph — so a single finding can relate a handler in one daemon to
a call site in another.  Findings reuse the lint :class:`Finding`
shape and flow through the same ``# mal: disable=`` waiver machinery,
scoped so a lint-only run never judges flow waivers and vice versa.

Catalogue
---------
MAL010  unknown-method       call/cast targets a method no daemon (or
                             not the resolved destination) registers
MAL011  dead-handler         registered handler no site ever targets
                             (admin commands are exempt: the admin
                             surface reaches them out of band)
MAL012  silent-none-reply    call-mode handler has a path that neither
                             returns a value nor raises
MAL013  dropped-future       call() Future discarded without yield /
                             callback / timeout
MAL014  payload-mismatch     handler requires a payload key absent
                             from every call site, or a site passes a
                             key no handler reads
MAL015  cast-consumed-reply  cast to a method whose reply other sites
                             consume (cast replies are discarded)
MAL016  undocumented-admin   admin command missing from DESIGN.md
MAL017  unsanitized-mutation protocol-critical daemon state mutated
                             without the declared sanitizer hook
MAL018  payload-edit         a handler edits its request payload in
                             place, or a sender edits a name it already
                             posted (the wire moves payloads, it does
                             not copy them)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow.extract import Extraction
from repro.analysis.flow.model import ANY_KIND, CallSite, Handler
from repro.analysis.linter import Finding

#: Codes this pass owns — the waiver sweep is scoped to these.
FLOW_CODES: Tuple[str, ...] = (
    "MAL010", "MAL011", "MAL012", "MAL013", "MAL014", "MAL015",
    "MAL016", "MAL017", "MAL018",
)

#: MAL017's contract: per daemon kind, the attribute roots that hold
#: protocol-critical state, which member calls mutate them (``"="``
#: covers direct attribute/subscript assignment under the root), and
#: the sanitizer plane whose hook must appear in the same function.
#: The osd replica apply path is deliberately absent: MAL-3 scenarios
#: assert on *primary-side* zlog observation only.
PROTECTED_SURFACES: Dict[str, Dict] = {
    "mon": {
        "plane": "paxos",
        "roots": {
            "chosen": {"learn", "take_ready", "="},
            "store": {"apply_batch", "restore"},
        },
    },
    "mds": {
        "plane": "caps",
        "roots": {
            "locker": {"try_grant", "release", "next_waiter",
                       "drop_ino", "mark_revoking"},
        },
    },
}


def _finding(code: str, name: str, message: str, path: str,
             line: int) -> Finding:
    return Finding(code=code, name=name, message=message, path=path,
                   line=line)


# ----------------------------------------------------------------------
# Individual rules (each takes the extraction, returns raw findings)
# ----------------------------------------------------------------------
def _mal010_unknown_method(ex: Extraction) -> List[Finding]:
    out: List[Finding] = []
    graph = ex.graph
    for site in graph.sites:
        registered = graph.registered_kinds(site.method)
        if not registered:
            out.append(_finding(
                "MAL010", "unknown-method",
                f"{site.mode} targets '{site.method}' but no daemon "
                "kind registers that handler", site.path, site.line))
        elif site.dst_kind != ANY_KIND \
                and site.dst_kind not in registered:
            out.append(_finding(
                "MAL010", "unknown-method",
                f"{site.mode} sends '{site.method}' to kind "
                f"'{site.dst_kind}' (dst `{site.dst_text}`, resolved "
                f"via {site.resolution}) but only "
                f"{registered} register it", site.path, site.line))
    return out


def _mal011_dead_handler(ex: Extraction) -> List[Finding]:
    out: List[Finding] = []
    graph = ex.graph
    seen: Set[Tuple[str, int]] = set()
    for node in graph.kinds.values():
        for method, handler in node.handlers.items():
            if handler.is_admin:
                continue          # reachable through the admin surface
            if graph.sites_of(method):
                continue
            key = (handler.path, handler.line)
            if key in seen:
                continue          # mixin-registered: one report
            seen.add(key)
            out.append(_finding(
                "MAL011", "dead-handler",
                f"handler '{method}' ({handler.cls}.{handler.func}) "
                "is registered but no call/cast site targets it",
                handler.path, handler.line))
    return out


def _mal012_silent_none(ex: Extraction) -> List[Finding]:
    out: List[Finding] = []
    graph = ex.graph
    seen: Set[Tuple[str, int]] = set()
    for node in graph.kinds.values():
        for method, handler in node.handlers.items():
            if not any(s.mode == "call" for s in graph.sites_of(method)):
                continue          # never awaited: reply shape moot
            if handler.func in ("<lambda>", "<unknown>"):
                continue
            if handler.returns_value and handler.falls_through:
                key = (handler.path, handler.line)
                if key in seen:
                    continue
                seen.add(key)
                out.append(_finding(
                    "MAL012", "silent-none-reply",
                    f"call-mode handler '{method}' "
                    f"({handler.cls}.{handler.func}) has a path that "
                    "neither returns a value nor raises — callers "
                    "get a silent None reply", handler.path,
                    handler.line))
    return out


def _mal013_dropped_future(ex: Extraction) -> List[Finding]:
    out: List[Finding] = []
    for site in ex.graph.sites:
        if site.mode != "call":
            continue
        if site.consumes_reply or site.has_timeout:
            continue
        out.append(_finding(
            "MAL013", "dropped-future",
            f"Future from call('{site.method}') is dropped: not "
            "yielded, no done-callback, no timeout — failures "
            "vanish silently (use cast() for fire-and-forget)",
            site.path, site.line))
    return out


def _candidate_handlers(ex: Extraction,
                        site: CallSite) -> List[Handler]:
    graph = ex.graph
    if site.dst_kind != ANY_KIND:
        node = graph.kinds.get(site.dst_kind)
        if node and site.method in node.handlers:
            return [node.handlers[site.method]]
        return []
    return graph.handlers_of(site.method)


def _mal014_payload_mismatch(ex: Extraction) -> List[Finding]:
    out: List[Finding] = []
    graph = ex.graph
    # Direction 1: handler requires a key no site ever passes.  Only
    # judged when every site has a fully-known payload literal.
    seen: Set[Tuple[str, int, str]] = set()
    for node in graph.kinds.values():
        for method, handler in node.handlers.items():
            sites = graph.sites_of(method)
            if not sites or not handler.payload_keys:
                continue
            if any(s.payload_exhaustive is not True for s in sites):
                continue
            passed = {k for s in sites for k in s.payload_keys}
            for key in handler.payload_keys:
                if key in passed:
                    continue
                fkey = (handler.path, handler.line, key)
                if fkey in seen:
                    continue
                seen.add(fkey)
                out.append(_finding(
                    "MAL014", "payload-mismatch",
                    f"handler '{method}' ({handler.cls}."
                    f"{handler.func}) reads payload['{key}'] but no "
                    "call site passes that key", handler.path,
                    handler.line))
    # Direction 2: site passes a key no candidate handler reads.
    for site in graph.sites:
        if site.payload_exhaustive is not True or not site.payload_keys:
            continue
        handlers = _candidate_handlers(ex, site)
        if not handlers or any(h.payload_wholesale or
                               h.func == "<unknown>" for h in handlers):
            continue
        read = {k for h in handlers
                for k in (*h.payload_keys, *h.payload_optional_keys)}
        dead = sorted(set(site.payload_keys) - read)
        if dead:
            out.append(_finding(
                "MAL014", "payload-mismatch",
                f"{site.mode}('{site.method}') passes payload "
                f"key(s) {dead} that no handler for the method ever "
                "reads", site.path, site.line))
    return out


def _mal015_cast_consumed(ex: Extraction) -> List[Finding]:
    out: List[Finding] = []
    graph = ex.graph
    consumed = {s.method for s in graph.sites
                if s.mode == "call" and s.consumes_reply}
    for site in graph.sites:
        if site.mode == "cast" and site.method in consumed:
            out.append(_finding(
                "MAL015", "cast-consumed-reply",
                f"cast('{site.method}') discards the reply, but "
                "other sites call() this method and consume its "
                "return value — mixed call/cast traffic to a "
                "reply-bearing handler", site.path, site.line))
    return out


def _mal016_undocumented_admin(ex: Extraction,
                               design_text: Optional[str],
                               ) -> List[Finding]:
    if design_text is None:
        return []
    out: List[Finding] = []
    graph = ex.graph
    reported: Set[str] = set()
    for node in graph.kinds.values():
        for command in node.admin_commands:
            if command in reported or command in design_text:
                continue
            reported.add(command)
            handler = node.handlers.get(command)
            path = handler.path if handler else "<unknown>"
            line = handler.line if handler else 1
            out.append(_finding(
                "MAL016", "undocumented-admin",
                f"admin command '{command}' is registered but not "
                "documented in DESIGN.md (regenerate the inventory "
                "with `python -m repro.analysis flow --docs`)",
                path, line))
    return out


def _mal017_unsanitized_mutation(ex: Extraction) -> List[Finding]:
    out: List[Finding] = []
    for mut in ex.mutations:
        if mut.func == "__init__":
            continue              # construction, not protocol activity
        for kind in mut.kinds:
            surface = PROTECTED_SURFACES.get(kind)
            if surface is None:
                continue
            members = surface["roots"].get(mut.attr_root)
            if members is None or mut.member not in members:
                continue
            plane = surface["plane"]
            if plane in mut.planes_in_func:
                continue
            op = f"{mut.attr_root}.{mut.member}()" \
                if mut.member != "=" else f"{mut.attr_root}.<attr> ="
            out.append(_finding(
                "MAL017", "unsanitized-mutation",
                f"{mut.cls}.{mut.func} mutates protocol-critical "
                f"state ({op}) without a '{plane}' sanitizer "
                "observation in the same function — the runtime "
                f"{plane} checker cannot see this transition",
                mut.path, mut.line))
            break                 # one finding per mutation site
    return out


def _mal018_payload_edit(ex: Extraction) -> List[Finding]:
    out: List[Finding] = []
    for edit in ex.payload_edits:
        if edit.by_handler:
            message = (f"{edit.owner} edits its request payload in place "
                       f"(`{edit.source}`); the sender may still hold it "
                       "(a retry, a fan-out) — build a new value instead")
        else:
            message = (f"`{edit.name}` was posted by {edit.owner} and is "
                       f"edited in place afterwards (`{edit.source}`); a "
                       "posted payload belongs to the message")
        out.append(_finding("MAL018", "payload-edit", message, edit.path,
                            edit.line))
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def flow_findings(ex: Extraction,
                  design_text: Optional[str] = None) -> List[Finding]:
    """All raw MAL010-018 findings (pre-waiver), sorted."""
    findings: List[Finding] = []
    findings.extend(_mal010_unknown_method(ex))
    findings.extend(_mal011_dead_handler(ex))
    findings.extend(_mal012_silent_none(ex))
    findings.extend(_mal013_dropped_future(ex))
    findings.extend(_mal014_payload_mismatch(ex))
    findings.extend(_mal015_cast_consumed(ex))
    findings.extend(_mal016_undocumented_admin(ex, design_text))
    findings.extend(_mal017_unsanitized_mutation(ex))
    findings.extend(_mal018_payload_edit(ex))
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return findings
