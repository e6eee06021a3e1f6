"""Host-performance profiling for single specs (``repro profile``).

The bench machinery (`repro bench`) answers *how fast* the simulator
runs; this module answers *where the host time goes*.  It runs one
:class:`~repro.runner.spec.ExperimentSpec` under :mod:`cProfile` and
reduces the trace to a JSON-serializable report:

* **host** — wall seconds, simulated events/s and cycles/s, so a
  hotspot's weight can be read against the throughput it costs;
* **hotspots** — the top-N profile rows (by ``tottime`` or
  ``cumtime``), each with call count and per-call cost;
* **components** — the simulated per-component cycle table (the paper's
  NoTrans/Trans/Stalled/... stacking) with each component's share, so a
  host hotspot can be correlated with the simulated phase that drives
  it.

Profiling overhead inflates small-function cost (the tracer hook fires
on every call), so treat ``tottime`` as attribution, not as absolute
speed — wall-clock comparisons belong to ``repro bench``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Any

from repro.runner.spec import ExperimentSpec

#: pstats sort keys accepted by ``profile_spec`` (CLI ``--sort``)
SORT_KEYS = ("tottime", "cumtime", "ncalls")


def profile_spec(
    spec: ExperimentSpec,
    top: int = 20,
    sort: str = "tottime",
) -> dict[str, Any]:
    """Profile one spec run; returns the hotspot report as a dict."""
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    from repro.runner.executor import execute_spec

    execute_spec(spec)  # warm-up: imports, memo fills, workload build
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = execute_spec(spec)
    profiler.disable()
    wall = time.perf_counter() - start

    stats = pstats.Stats(profiler)
    stats.sort_stats(sort)
    hotspots = []
    for func in stats.fcn_list[:top]:  # fcn_list is set by sort_stats
        cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, line, name = func
        hotspots.append({
            "function": name,
            "file": filename,
            "line": line,
            "ncalls": ncalls,
            "primitive_calls": cc,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
            "percall_us": round(tottime / ncalls * 1e6, 3) if ncalls else 0.0,
        })

    total = result.breakdown.total or 1
    components = {
        name: {"cycles": cycles, "share": round(cycles / total, 4)}
        for name, cycles in result.breakdown.cycles.items()
    }
    return {
        "spec": spec.label(),
        "scheme": result.scheme,
        "sort": sort,
        "host": {
            "wall_s": round(wall, 6),
            "events_executed": result.events_executed,
            "events_per_s": round(result.events_executed / wall, 1),
            "sim_cycles": result.total_cycles,
            "sim_cycles_per_s": round(result.total_cycles / wall, 1),
        },
        "components": components,
        "hotspots": hotspots,
    }


def format_profile(report: dict[str, Any]) -> str:
    """Render a :func:`profile_spec` report as an aligned text table."""
    host = report["host"]
    lines = [
        f"profile — {report['spec']} (sorted by {report['sort']})",
        f"  wall {host['wall_s']:.3f}s | "
        f"{host['events_per_s']:,.0f} events/s | "
        f"{host['sim_cycles_per_s']:,.0f} sim-cycles/s",
        "",
        f"  {'function':<42} {'calls':>9} {'tottime':>9} "
        f"{'cumtime':>9} {'us/call':>9}",
    ]
    for spot in report["hotspots"]:
        where = spot["function"]
        if spot["line"]:
            tail = spot["file"].rsplit("/", 1)[-1]
            where = f"{where} ({tail}:{spot['line']})"
        lines.append(
            f"  {where:<42.42} {spot['ncalls']:>9} "
            f"{spot['tottime_s']:>9.4f} {spot['cumtime_s']:>9.4f} "
            f"{spot['percall_us']:>9.2f}"
        )
    lines.append("")
    lines.append(f"  {'component':<12} {'sim cycles':>12} {'share':>7}")
    for name, row in report["components"].items():
        if row["cycles"]:
            lines.append(
                f"  {name:<12} {row['cycles']:>12,} {row['share']:>6.1%}"
            )
    return "\n".join(lines)
