"""Prometheus text exposition of scraped telemetry.

``metrics.export`` on the mgr renders the latest scrape of every
daemon in the Prometheus text format (version 0.0.4): one metric
family per kind (counters, gauges), with ``daemon`` and ``name``
labels carrying the registry structure::

    # TYPE repro_counter_total counter
    repro_counter_total{daemon="mon0",name="paxos.commit"} 42

Latency trackers expand into the conventional summary triplet
(``_count`` / ``_sum``) plus min/mean/max gauges.  The module also
ships :func:`parse_prometheus_text` — a strict parser used by the
tests to prove the export round-trips, and handy for consumers that
want the samples back as Python values.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Tuple

#: (family name, prometheus type) for each registry section.
_FAMILIES = {
    "counter": ("repro_counter_total", "counter"),
    "gauge": ("repro_gauge", "gauge"),
}

_LATENCY_FIELDS = (
    ("count", "repro_latency_count", "counter"),
    ("sum", "repro_latency_sum", "counter"),
    ("mean", "repro_latency_mean", "gauge"),
    ("min", "repro_latency_min", "gauge"),
    ("max", "repro_latency_max", "gauge"),
)


class PromSample(NamedTuple):
    """One parsed exposition line."""

    metric: str
    labels: Dict[str, str]
    value: float


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _fmt(value: float) -> str:
    # repr() keeps full precision; integers render without the ".0"
    # noise so counters look like counters.
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def prometheus_export(dumps: Dict[str, Dict[str, Any]]) -> str:
    """Render every daemon's dump as Prometheus exposition text.

    ``dumps`` maps daemon name to its ``telemetry.dump`` payload.
    Non-numeric gauges are skipped; every numeric metric in every
    registry section is exported, which is what the round-trip test
    asserts.
    """
    lines: List[str] = []
    by_family: Dict[Tuple[str, str], List[str]] = {}

    def add(family: str, ptype: str, labels: Dict[str, str],
            value: float) -> None:
        label_text = ",".join(
            f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
        by_family.setdefault((family, ptype), []).append(
            f"{family}{{{label_text}}} {_fmt(value)}")

    for daemon in sorted(dumps):
        dump = dumps[daemon]
        if dump is None:
            continue
        sections = (("counter", dump.get("counters", {})),
                    ("gauge", dump.get("gauges", {})))
        for kind, section in sections:
            family, ptype = _FAMILIES[kind]
            for name in sorted(section):
                value = section[name]
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                add(family, ptype, {"daemon": daemon, "name": name},
                    float(value))
        latency = dump.get("latency", {})
        for name in sorted(latency):
            tracker = latency[name]
            for field, family, ptype in _LATENCY_FIELDS:
                if field in tracker:
                    add(family, ptype,
                        {"daemon": daemon, "name": name},
                        float(tracker[field]))

    for (family, ptype), samples in sorted(by_family.items()):
        lines.append(f"# TYPE {family} {ptype}")
        lines.extend(samples)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text: str) -> List[PromSample]:
    """Parse exposition text back into samples (strict).

    Raises ``ValueError`` on any malformed line, undeclared metric
    family, or unparsable value — the tests lean on that strictness to
    certify the exporter's output.
    """
    samples: List[PromSample] = []
    declared: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "summary",
                                    "histogram", "untyped"):
                    raise ValueError(
                        f"line {lineno}: bad TYPE {parts[3]!r}")
                declared[parts[2]] = parts[3]
            continue
        metric, labels, value = _parse_sample(line, lineno)
        if metric not in declared:
            raise ValueError(
                f"line {lineno}: metric {metric!r} has no TYPE "
                f"declaration")
        samples.append(PromSample(metric, labels, value))
    return samples


def _parse_sample(line: str, lineno: int
                  ) -> Tuple[str, Dict[str, str], float]:
    brace = line.find("{")
    if brace == -1:
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        return parts[0], {}, _parse_value(parts[1], lineno)
    close = line.rfind("}")
    if close == -1 or close < brace:
        raise ValueError(f"line {lineno}: unbalanced braces in {line!r}")
    metric = line[:brace]
    if not metric or not all(c.isalnum() or c in "_:" for c in metric):
        raise ValueError(f"line {lineno}: bad metric name {metric!r}")
    labels = _parse_labels(line[brace + 1:close], lineno)
    return metric, labels, _parse_value(line[close + 1:].strip(), lineno)


def _parse_labels(body: str, lineno: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.find("=", i)
        if eq == -1:
            raise ValueError(f"line {lineno}: bad label segment "
                             f"{body[i:]!r}")
        key = body[i:eq].strip()
        if body[eq + 1] != '"':
            raise ValueError(f"line {lineno}: label {key!r} value is "
                             f"not quoted")
        j = eq + 2
        out = []
        while j < len(body):
            c = body[j]
            if c == "\\":
                nxt = body[j + 1]
                out.append({"n": "\n", '"': '"', "\\": "\\"}.get(
                    nxt, "\\" + nxt))
                j += 2
                continue
            if c == '"':
                break
            out.append(c)
            j += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value")
        labels[key] = "".join(out)
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


def _parse_value(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"line {lineno}: bad sample value {token!r}") from None
