"""Cluster management service: health, metrics, and decision audit.

The Malacology thesis is that storage-internal state should be exposed
and programmable; ``repro.mgr`` is the operator-facing half of that
claim — a Ceph-mgr-style daemon that scrapes every daemon's telemetry
over the message layer into bounded time series, evaluates one table
of health checks into the ``HEALTH_OK/WARN/ERR`` ladder, exports
Prometheus text, and keeps the Mantle decision audit trail that makes
balancer behaviour explainable after the fact.

Pieces:

* :class:`MgrDaemon` — the manager daemon (deterministic scraping;
  see its module docstring for the non-perturbation contract);
* :mod:`repro.mgr.timeseries` — per-daemon metric ring buffers with
  rate/derivative queries;
* :mod:`repro.mgr.health` — the health checks, one function each in
  the :data:`~repro.mgr.health.CHECKS` table (OSD down, daemon
  unreachable, Paxos stall, MDS latency regression, stuck cap revokes,
  ZLog epoch churn, MDS imbalance, changelog consumer lag and stalled
  trim, full cache tier, stalled compaction, armed nemesis);
* :mod:`repro.mgr.prometheus` — exposition-format export and a strict
  parser;
* :mod:`repro.mgr.audit` — the per-MDS Mantle audit trail and the
  cluster-wide merge.
"""

from repro.mgr.audit import MantleAuditTrail, merge_trails
from repro.mgr.daemon import MgrDaemon
from repro.mgr.health import (
    CHECKS,
    HEALTH_ERR,
    HEALTH_OK,
    HEALTH_WARN,
    ClusterSample,
    HealthCheckResult,
    HealthReport,
    evaluate_health,
    sample_cluster,
    worst_status,
)
from repro.mgr.prometheus import (
    PromSample,
    parse_prometheus_text,
    prometheus_export,
)
from repro.mgr.timeseries import DaemonSeries, MetricSeries

__all__ = [
    "CHECKS",
    "ClusterSample",
    "DaemonSeries",
    "HEALTH_ERR",
    "HEALTH_OK",
    "HEALTH_WARN",
    "HealthCheckResult",
    "HealthReport",
    "MantleAuditTrail",
    "MetricSeries",
    "MgrDaemon",
    "PromSample",
    "evaluate_health",
    "merge_trails",
    "parse_prometheus_text",
    "prometheus_export",
    "sample_cluster",
    "worst_status",
]
