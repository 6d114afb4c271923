"""The ``profile.*`` admin-socket surface.

Mirrors the telemetry commands: every daemon answers ``profile.status``
and ``profile.dump`` both out-of-band (``daemon.admin_command``) and
in-band as RPC handlers.  The commands are registered unconditionally —
so a profiled and an unprofiled cluster expose identical handler
tables — and simply report ``enabled: false`` when no profiler is
installed on the simulator.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

#: Commands every daemon answers.
PROFILE_COMMANDS = ("profile.status", "profile.dump")


def install_profile_commands(daemon: Any) -> None:
    """Register the profiling commands on one daemon."""
    daemon.register_admin_command(
        "profile.status", lambda args: profile_status(daemon))
    daemon.register_admin_command(
        "profile.dump", lambda args: profile_dump(daemon, args))


def handler_stats(daemon: Any) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """``(daemon, method) -> count / sim_time / errors`` for one daemon.

    Read at dump time from the daemon's own ``rpc.<method>`` latency
    trackers and ``rpc.<method>.errors`` counters — the one record of
    handler activity — so the table shares telemetry's lifecycle: a
    crash (or ``telemetry.reset``) clears it.
    """
    dump = daemon.perf.dump()
    return {
        (daemon.name, name.removeprefix("rpc.")): {
            "count": lat["count"], "sim_time": lat["sum"],
            "errors": int(dump["counters"].get(f"{name}.errors", 0))}
        for name, lat in dump["latency"].items()
        if name.startswith("rpc.")}


def profile_status(daemon: Any) -> Dict[str, Any]:
    """Kernel-plane summary plus this daemon's handler totals."""
    prof = daemon.sim.profiler
    out: Dict[str, Any] = {
        "daemon": daemon.name,
        "enabled": prof is not None,
        "wall_enabled": daemon.sim.wall_profiler is not None,
    }
    if prof is not None:
        out["kernel"] = prof.status()
        mine = handler_stats(daemon).values()
        out["handler_events"] = sum(s["count"] for s in mine)
        out["handler_sim_time"] = sum(s["sim_time"] for s in mine)
    return out


def profile_dump(daemon: Any,
                 args: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Full profile dump.

    Default scope is this daemon's handler stats plus the kernel
    plane; ``{"scope": "cluster"}`` widens to every daemon's handler
    stats and the wall-clock plane (hotspots, attribution stats);
    ``{"collapsed": true}`` additionally inlines the flamegraph-ready
    collapsed-stack text.
    """
    args = args or {}
    prof = daemon.sim.profiler
    wall = daemon.sim.wall_profiler
    out: Dict[str, Any] = {
        "daemon": daemon.name,
        "enabled": prof is not None,
        "wall_enabled": wall is not None,
    }
    if prof is None:
        return out
    cluster_scope = args.get("scope") == "cluster"
    out["kernel"] = prof.status()
    stats: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for d in daemon.network.endpoints() if cluster_scope else (daemon,):
        stats.update(handler_stats(d))
    out["handler_stats"] = {f"{d}:{method}": stat
                            for (d, method), stat in sorted(stats.items())}
    if cluster_scope:
        ranked = sorted(stats.items(),
                        key=lambda kv: (-kv[1]["sim_time"], kv[0]))
        out["top_sim_time"] = [{"daemon": d, "method": method, **stat}
                               for (d, method), stat in ranked[:10]]
        out["queue_samples"] = [list(s) for s in prof.queue_samples]
    if wall is not None and cluster_scope:
        out["wall"] = wall.dump()
        if args.get("collapsed"):
            out["collapsed_stacks"] = wall.collapsed_stacks()
    return out
