"""Profiling harness: where does a simulated run spend its wall-clock?

Perf work on the simulator needs a measurement loop, not guesses.  This
module provides the two complementary views ``python -m repro profile``
reports:

* **Stage timers** — coarse wall-clock per pipeline stage (generate, warm,
  simulate, collect; plus preload/schedule/validate for DX100 runs),
  accumulated by :class:`StageTimers` context managers threaded through
  :mod:`repro.sim.runner`.  Passing no timers costs nothing: the runner
  defaults to a shared null object whose ``stage`` returns a reusable
  no-op context.
* **Component attribution** — cProfile's per-function ``tottime`` folded
  up to the ``repro`` subpackage that owns the function (dram, cache,
  core, dx100, ...), so a run answers "the DRAM model is 40% of wall"
  directly, plus the raw top-N hotspot list for drilling in.

:func:`profile_run` produces a schema-versioned report dict; the CLI
pretty-prints it and can write it as JSON for tracking perf trajectories
alongside ``BENCH_mainsweep.json``.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

#: Bump when the report dict's shape changes incompatibly.
PROFILE_SCHEMA = 2

_SRC_ROOT = str(Path(__file__).resolve().parents[1])  # .../src/repro


class StageTimers:
    """Named wall-clock accumulators for coarse pipeline stages."""

    __slots__ = ("totals",)

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        """Context manager accumulating the block's wall time under ``name``."""
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self.totals[name] = self.totals.get(name, 0.0) + elapsed

    def as_dict(self) -> dict[str, float]:
        return {name: round(total, 6) for name, total in self.totals.items()}


class _NullTimers:
    """Zero-overhead stand-in used when no profiling was requested."""

    __slots__ = ()
    totals: dict[str, float] = {}

    _CTX = nullcontext()

    def stage(self, name: str):
        return self._CTX

    def as_dict(self) -> dict[str, float]:
        return {}


#: Shared do-nothing timer the runner defaults to.
NULL_TIMERS = _NullTimers()


def _component_of(filename: str) -> str:
    """Map a profiled function's file to the repro subpackage owning it."""
    if filename.startswith(_SRC_ROOT):
        rel = filename[len(_SRC_ROOT):].lstrip("/")
        head = rel.split("/", 1)[0]
        if head.endswith(".py"):
            return head[:-3] or "repro"
        return head
    return "stdlib/other"


def _relative(filename: str) -> str:
    root = str(Path(_SRC_ROOT).parents[1])  # the repo root
    if filename.startswith(root):
        return filename[len(root):].lstrip("/")
    return filename


def summarize_profile(stats: pstats.Stats, top: int = 25,
                      ) -> tuple[list[dict], dict[str, float]]:
    """Fold raw cProfile stats into (top-N hotspots, per-component seconds).

    Hotspots are ranked by ``tottime`` (time inside the function itself,
    excluding callees) because that is what an optimization can actually
    remove; ``cumtime`` is reported alongside for context.  Component
    seconds sum each function's tottime into the ``repro`` subpackage that
    owns its source file, with everything outside the package pooled under
    ``stdlib/other``.
    """
    rows = []
    components: dict[str, float] = {}
    for (filename, line, func), entry in stats.stats.items():
        cc, ncalls, tottime, cumtime = entry[0], entry[1], entry[2], entry[3]
        components[_component_of(filename)] = (
            components.get(_component_of(filename), 0.0) + tottime)
        rows.append({
            "function": func,
            "file": _relative(filename),
            "line": line,
            "ncalls": ncalls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    rows.sort(key=lambda r: r["tottime_s"], reverse=True)
    components = {k: round(v, 6) for k, v in
                  sorted(components.items(), key=lambda kv: -kv[1])}
    return rows[:top], components


def profile_run(benchmark: str = "IS", mode: str = "baseline",
                quick: bool = True, top: int = 25,
                frontend: str | None = None) -> dict:
    """Profile one (benchmark, mode) run; returns the structured report.

    The run is the sweep's own task (:func:`repro.sim.sweep.task_grid`,
    :func:`~repro.sim.sweep.execute_task`) executed under cProfile with a
    :class:`StageTimers` threaded through, so the report's numbers
    describe exactly the code the sweep exercises.  ``frontend``
    overrides :attr:`SystemConfig.frontend` (profile the scalar oracle
    against the batched engine on identical work).
    """
    # Imported here so that `import repro.sim.profile` stays dependency-free
    # for the runner (which imports NULL_TIMERS from this module).
    from repro.sim.sweep import execute_task, task_grid

    (task,) = task_grid([benchmark], (mode,), "quick" if quick else "main",
                        frontend=frontend)
    timers = StageTimers()
    profiler = cProfile.Profile()
    profiler.enable()
    result, wall = execute_task(task, timers=timers)
    profiler.disable()

    stats = pstats.Stats(profiler)
    hotspots, components = summarize_profile(stats, top)
    return {
        "schema": PROFILE_SCHEMA,
        "benchmark": benchmark,
        "mode": mode,
        "quick": quick,
        "frontend": task.config.frontend,
        "wall_s": round(wall, 6),
        "stages_s": timers.as_dict(),
        "components_s": components,
        "hotspots": hotspots,
        "result": {
            "cycles": result.cycles,
            "instructions": result.instructions,
            "dram_requests": result.dram_requests,
            "dram_bytes": result.dram_bytes,
            "bandwidth_utilization": result.bandwidth_utilization,
            "row_buffer_hit_rate": result.row_buffer_hit_rate,
        },
    }


def format_report(report: dict) -> str:
    """Human-readable rendering of a :func:`profile_run` report."""
    lines = [
        f"profile: {report['benchmark']} [{report['mode']}]"
        f"{' (quick)' if report['quick'] else ''} — "
        f"{report['wall_s']:.3f}s wall, "
        f"{report['result']['cycles']} cycles",
        "",
        "stages (wall seconds):",
    ]
    for name, secs in report["stages_s"].items():
        lines.append(f"  {name:<10s} {secs:9.3f}")
    lines.append("")
    lines.append("components (cProfile tottime, seconds):")
    for name, secs in report["components_s"].items():
        lines.append(f"  {name:<14s} {secs:9.3f}")
    lines.append("")
    lines.append(f"top {len(report['hotspots'])} hotspots by tottime:")
    lines.append(f"  {'tottime':>9s} {'cumtime':>9s} {'ncalls':>9s}  function")
    for h in report["hotspots"]:
        lines.append(
            f"  {h['tottime_s']:9.3f} {h['cumtime_s']:9.3f} "
            f"{h['ncalls']:>9d}  {h['function']} "
            f"({h['file']}:{h['line']})")
    return "\n".join(lines)
