"""Simulation harness: system assembly, runners, metric collection."""

from repro.sim.corun import CorunResult, NamespacedMemory, run_corun
from repro.sim.metrics import RunResult, collect
from repro.sim.report import bar_chart, comparison_table, to_csv
from repro.sim.runner import (
    compare, run_baseline, run_dmp, run_dx100, software_pipeline,
)
from repro.sim.scale import run_dx100_multi
from repro.sim.statsdump import dump_stats, format_stats, write_stats
from repro.sim.sweep import (
    RunCache, SweepOutcome, SweepTask, main_sweep_tasks, run_sweep,
    task_grid,
)
from repro.sim.system import SimSystem

__all__ = [
    "CorunResult",
    "NamespacedMemory",
    "RunCache",
    "RunResult",
    "SimSystem",
    "SweepOutcome",
    "SweepTask",
    "bar_chart",
    "collect",
    "compare",
    "comparison_table",
    "dump_stats",
    "format_stats",
    "main_sweep_tasks",
    "run_baseline",
    "run_corun",
    "run_dmp",
    "run_dx100",
    "run_dx100_multi",
    "run_sweep",
    "software_pipeline",
    "task_grid",
    "to_csv",
    "write_stats",
]
