"""Centralized cluster log entries.

Mantle re-uses the monitor's centralized logging so operators watch one
stream instead of visiting every metadata server (paper section 5.1.3).
Entries are committed through Paxos like any other monitor transaction,
so the log is consistent across the quorum and survives monitor
failures.  An entry is frozen, so log transactions, tails and monitor
snapshots all carry the entry object itself.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severities, lowest to highest.
DEBUG = "DBG"
INFO = "INF"
WARN = "WRN"
ERROR = "ERR"

_LEVELS = {DEBUG: 0, INFO: 1, WARN: 2, ERROR: 3}


def severity_level(severity: str) -> int:
    """Numeric rank of a severity (higher is worse); raises on unknown."""
    try:
        return _LEVELS[severity]
    except KeyError:
        raise ValueError(f"unknown severity {severity!r}") from None


def max_severity(*severities: str) -> str:
    """The worst of the given severities (at least one required)."""
    if not severities:
        raise ValueError("max_severity needs at least one severity")
    return max(severities, key=severity_level)


@dataclass(frozen=True)
class ClusterLogEntry:
    """One line in the monitor cluster log."""

    time: float
    severity: str
    who: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in _LEVELS:
            raise ValueError(f"unknown severity {self.severity!r}")

    def at_least(self, severity: str) -> bool:
        return _LEVELS[self.severity] >= _LEVELS[severity]

    def format(self) -> str:
        return f"{self.time:10.3f} {self.severity} [{self.who}] {self.message}"
