"""Shared main-evaluation sweep for the Figure 9-12 benchmarks.

Runs the 12 paper benchmarks under the baseline, DMP, and DX100
configurations (scaled presets, see DESIGN.md) exactly once per pytest
session and caches the results for every figure's bench to consume.

The heavy lifting lives in :mod:`repro.sim.sweep`: runs fan out over
``multiprocessing`` workers and land in a content-addressed on-disk cache
(``results/.runcache``), so an unchanged model re-runs nothing and every
figure bench inherits parallelism and caching for free.  The grid run
here also writes ``results/sweep.json`` and the ``BENCH_mainsweep.json``
perf-trajectory record; it is the only writer of the latter.

Environment knobs:

* ``REPRO_QUICK=1``    — use the reduced QUICK_BENCHMARKS sizes;
* ``REPRO_JOBS=N``     — worker processes (default: CPU count);
* ``REPRO_NO_CACHE=1`` — always re-simulate (skip the run cache);
* ``REPRO_CACHE_DIR``  — override the cache location.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.sim import RunResult
from repro.sim.sweep import main_sweep_tasks, run_sweep
from repro.workloads import MAIN_BENCHMARKS, QUICK_BENCHMARKS

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_cache: dict[str, dict[str, RunResult]] | None = None


def benchmark_set():
    if os.environ.get("REPRO_QUICK"):
        return QUICK_BENCHMARKS
    return MAIN_BENCHMARKS


def get_results() -> dict[str, dict[str, RunResult]]:
    """name -> {"baseline": ..., "dmp": ..., "dx100": ...}."""
    global _cache
    if _cache is None:
        quick = bool(os.environ.get("REPRO_QUICK"))
        outcome = run_sweep(main_sweep_tasks(quick=quick),
                            cache=not os.environ.get("REPRO_NO_CACHE"))
        outcome.extras["quick"] = quick
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        for path, record in ((RESULTS_DIR / "sweep.json",
                              outcome.to_json_dict()),
                             (RESULTS_DIR.parent / "BENCH_mainsweep.json",
                              outcome.bench_record())):
            path.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n")
        _cache = outcome.nested()
    return _cache


def record(name: str, lines: list[str], data: dict | None = None) -> None:
    """Write a figure's table to results/<name>.txt (plus a machine-readable
    results/<name>.json) and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    payload = {"figure": name, "lines": lines}
    if data is not None:
        payload["data"] = data
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n=== {name} ===")
    print(text)
