"""One benchmark workload, run, checked and measured in its own process.

``run.py`` starts this file once per workload in a fresh interpreter with
one thread and ``src`` on the path.  The workload's task list runs in a
closed loop with one client (the next task starts when the previous one
finishes), pass after pass, until the next pass would overrun
``--seconds``; at least one pass always runs.  Every task goes through the
program's public entry points: the grids through ``main_sweep_tasks`` and
``run_sweep(tasks, jobs=1, cache=False)``, the full-scale runs through
``run_dx100`` exactly as ``python -m repro run --scale full`` calls it.

Untraced (``--trace 0``), the only probes are the set-up calls
(``SimSystem.__init__``, ``Workload.generate``, ``baseline_traces``,
``dx100_schedule``, ``DX100.preload_pages``) and the run reports the
end-to-end metrics.  Traced (``--trace 1``), every layer's public methods
are probed (see :func:`install_probes`) and the run reports per-layer
self time and counts instead.  Either way the result, with every task's
pinned output fields, goes to one JSON file under ``--out``; nothing is
written anywhere else.

Usage (normally through run.py):
    python perf_harness.py --workload quick-grid --seed 0 --seconds 20 \
        --trace 0 --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from perf_probes import TWIN, Tracer

MAIN6 = ("IS", "CG", "BFS", "PR", "PRH", "XRAGE")

#: Fig. 9's geomean speedup of DX100 over the baseline: the only paper
#: number a workload here is validated against (quick-grid).
PAPER_SPEEDUP_GEOMEAN = 2.6


@dataclass(frozen=True)
class BenchWorkload:
    """What one benchmark workload runs per pass.

    ``grid`` holds ``main_sweep_tasks`` keyword arguments; ``full`` names
    ``FULL_BENCHMARKS`` entries, each run under the 4-core DX100 config.
    ``--smoke`` shrinks either to one quick-scale task: the grid's last
    mode on IS, or the first full benchmark from ``QUICK_BENCHMARKS``.
    """

    grid: dict | None = None
    full: tuple[str, ...] = ()
    far: bool = False       # every DRAM request crosses the far-memory link
    golden: bool = False    # tests/golden/quick_suite.json pins seed 0

    def smoke_grid(self) -> dict:
        from repro.sim.sweep import MODES
        return dict(self.grid, quick=True, benchmarks=["IS"],
                    modes=self.grid.get("modes", MODES)[-1:])


WORKLOADS = {
    "quick-grid": BenchWorkload(grid=dict(quick=True), golden=True),
    "main-cpu": BenchWorkload(grid=dict(benchmarks=list(MAIN6),
                                        modes=("baseline", "dmp"))),
    "full-dx100": BenchWorkload(full=("CG", "XRAGE")),
    "main-cxl": BenchWorkload(grid=dict(benchmarks=list(MAIN6),
                                        modes=("baseline", "dx100"),
                                        dram="cxl"),
                              far=True),
}

# Probed Workload methods (on every class that defines one) -> span name.
WORKLOAD_HOOKS = {"generate": "generate", "baseline_traces": "trace",
                  "dx100_schedule": "schedule", "validate_dx": "validate"}

#: The (layer, method) spans whose time is the run's set-up.
SETUP_SPANS = {("sim", "init"), ("workloads", "generate"),
               ("workloads", "trace"), ("workloads", "schedule"),
               ("dx100", "preload_pages")}


# ------------------------------------------------------------------ probes

def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install_probes(tracer: Tracer, seed: int, traced: bool) -> None:
    """Probe the set-up calls (and, when ``traced``, every layer's public
    methods) and make every workload's ``generate`` draw from ``seed``.

    Every paper workload draws all its randomness inside ``generate``, so
    reseeding there with seed 0 reproduces the registry exactly."""
    import numpy as np

    from repro.cache.batched import BatchedHierarchy
    from repro.core.batched import BatchedMulticore
    from repro.dram.remote import RemoteLink
    from repro.dram.system import DRAMSystem
    from repro.dx100.accelerator import DX100
    from repro.prefetch.dmp import DMPEngine
    from repro.sim import runner
    from repro.sim.system import SimSystem
    from repro.workloads.base import Workload

    def reseeded(generate):
        @functools.wraps(generate)
        def seeded_generate(self, mem):
            self.seed = seed
            self.rng = np.random.default_rng(seed)
            return generate(self, mem)
        return seeded_generate

    for cls in _subclasses(Workload):
        for attr, span in WORKLOAD_HOOKS.items():
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if attr == "validate_dx" and not traced:
                continue
            if attr == "generate":
                fn = reseeded(fn)
            setattr(cls, attr, tracer.wrap("workloads", span, fn))
    tracer.patch(SimSystem, "__init__", "sim", "init")
    tracer.patch(DX100, "preload_pages", "dx100")
    if not traced:
        return
    # RemoteLink.is_far is left unprobed: it is a placement test made on
    # every request, so its probe would cost several times its own work
    # and its time is left with its callers in the dram layer.
    layers = [
        (BatchedMulticore, "core", ("run",)),
        (BatchedHierarchy, "cache", ("access", "llc_access", "access_lines",
                                     "prefetch_into", "snoop")),
        (DMPEngine, "prefetch", ("observe",)),
        (DRAMSystem, "dram", ("access", "enqueue", "complete", "drain")),
        (RemoteLink, "dram.remote", ("inject", "deliver")),
        (DX100, "dx100", ("dispatch", "wait", "write_register",
                          "mark_consumed")),
    ]
    for owner, layer, attrs in layers:
        for attr in attrs:
            tracer.patch(owner, attr, layer)
    probed_collect = tracer.wrap("sim", "collect", runner.collect)

    def collect(system, workload, config_name, *args, **kwargs):
        result = probed_collect(system, workload, config_name, *args,
                                **kwargs)
        tracer.end_task(f"{workload}/{config_name}",
                        layer_counts(system, result))
        return result

    runner.collect = collect


def layer_counts(system, result) -> dict[str, float]:
    """Work counters of one finished task, read from its system."""
    h = system.hierarchy.stats
    dram = system.dram.merged_stats()
    requests = dram.get("requests")
    counts = {
        "core.instructions": system.multicore.total_instructions(),
        "cache.l1_accesses": h.get("l1_accesses"),
        "cache.l1_hits": h.get("l1_hits"),
        "cache.llc_accesses": h.get("llc_accesses"),
        "cache.llc_hits": h.get("llc_hits"),
        "cache.mshr_coalesced": sum(h.get(f"{level}_mshr_coalesced")
                                    for level in ("l1", "l2", "llc")),
        "dram.requests": requests,
        "dram.writes": dram.get("writes"),
        "dram.row_hits": dram.get("row_hits"),
        "dram.occupancy_x_requests":
            result.request_buffer_occupancy * requests,
        "sim.cycles": result.cycles,
    }
    if system.dmp is not None:
        counts["prefetch.issued"] = system.dmp.stats.get("dmp_prefetches")
    remote = system.dram.remote
    if remote is not None:
        counts["dram.remote.transfers"] = remote.transfers
        counts["dram.remote.out_wait"] = remote.stats.get("link_out_wait")
        counts["dram.remote.ret_wait"] = remote.stats.get("link_ret_wait")
    dx = system.dx100
    if dx is not None:
        s = dx.stats
        indirect_lines = sum(s.get(f"i{k}_lines") for k in ("ld", "st",
                                                             "rmw"))
        counts["dx100.instructions"] = s.get("instructions")
        counts["dx100.elements"] = sum(s.get(f"i{k}_elements")
                                       for k in ("ld", "st", "rmw"))
        counts["dx100.indirect_lines"] = indirect_lines
        counts["dx100.tile_lines"] = (indirect_lines + s.get("sld_lines")
                                      + s.get("sst_lines"))
        counts["dx100.drains"] = s.get("indirect_drains")
    return counts


# ------------------------------------------------------------------ checks

def task_problems(result, far: bool = False, snapshot: dict | None = None,
                  golden: dict | None = None) -> list[str]:
    """Every reason one task's output is wrong; empty when it is right.

    ``result`` is the task's ``RunResult``, or the exception it raised (a
    DX100 run whose memory state fails validation raises).  With ``far``
    every DRAM request must have crossed the far-memory link.  With
    ``golden`` (the task's quick-suite golden entry) the task's
    ``golden_snapshot`` entry ``snapshot`` must equal it field for field.
    """
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    from repro.sim.sweep import diff_golden
    x = result.extra
    requests = result.dram_requests
    problems = []
    if x["dram_reads"] + x["dram_writes"] != requests:
        problems.append(f"DRAM reads {x['dram_reads']:g} + writes "
                        f"{x['dram_writes']:g} != requests {requests:g}")
    rows = x["dram_row_hits"] + x["dram_row_conflicts"] + x["dram_row_empty"]
    if rows != requests:
        problems.append(f"DRAM row hits + conflicts + empty {rows:g} != "
                        f"requests {requests:g}")
    if result.cycles <= 0:
        problems.append(f"cycles {result.cycles} <= 0")
    if far and x.get("far_serviced") != requests:
        problems.append(f"far_serviced {x.get('far_serviced')} != "
                        f"requests {requests:g}")
    if golden is not None:
        name, mode = result.workload, result.config
        problems += diff_golden({name: {mode: snapshot}},
                                {name: {mode: golden}})
    return problems


# -------------------------------------------------------------------- runs

@dataclass
class TaskOutcome:
    label: str
    result: object            # RunResult, or the exception the task raised
    problems: list[str]


@dataclass
class Pass:
    wall: float               # host seconds for the whole task list
    tasks: list[TaskOutcome]
    spans: list[dict]         # the tracer's finished tasks in this pass


def grid_pass(tasks, far: bool = False,
              golden: dict | None = None) -> tuple[float, list[TaskOutcome]]:
    """One ``run_sweep`` over ``tasks``: (wall seconds, checked outcomes).
    A raising task aborts the sweep, so every task of the pass fails."""
    from repro.sim.sweep import golden_snapshot, run_sweep
    t0 = time.perf_counter()
    try:
        outcome = run_sweep(tasks, jobs=1, cache=False)
    except Exception as exc:
        wall = time.perf_counter() - t0
        traceback.print_exc()
        return wall, [TaskOutcome(f"{t.benchmark}/{t.mode}", exc,
                                  task_problems(exc)) for t in tasks]
    wall = time.perf_counter() - t0
    snapshot = golden_snapshot(outcome)
    out = []
    for run in outcome.runs:
        name, mode = run.task.benchmark, run.task.mode
        want = None if golden is None else golden.get(name, {}).get(mode, {})
        out.append(TaskOutcome(f"{name}/{mode}", run.result, task_problems(
            run.result, far, snapshot[name][mode], want)))
    return wall, out


def full_pass(names, quick: bool) -> tuple[float, list[TaskOutcome]]:
    """Each named benchmark under the 4-core DX100 config, as
    ``python -m repro run --scale full`` runs it."""
    from repro.sim.runner import run_dx100
    from repro.sim.sweep import CONFIG_BUILDERS
    from repro.workloads import FULL_BENCHMARKS, QUICK_BENCHMARKS
    registry = QUICK_BENCHMARKS if quick else FULL_BENCHMARKS
    results = []
    t0 = time.perf_counter()
    for name in names:
        try:
            result = run_dx100(registry[name](), CONFIG_BUILDERS["dx100"](4),
                               warm=False)
        except Exception as exc:
            traceback.print_exc()
            result = exc
        results.append((f"{name}/dx100", result))
    wall = time.perf_counter() - t0
    return wall, [TaskOutcome(label, r, task_problems(r))
                  for label, r in results]


def run_passes(spec: BenchWorkload, tracer: Tracer, seconds: float,
               smoke: bool, golden: dict | None) -> list[Pass]:
    """Passes over the workload's task list until the next pass would end
    past ``seconds`` (one pass under ``smoke``)."""
    if spec.grid is not None:
        from repro.sim.sweep import main_sweep_tasks
        tasks = main_sweep_tasks(**(spec.smoke_grid() if smoke
                                    else spec.grid))

        def one_pass():
            return grid_pass(tasks, spec.far, golden)
    else:
        names = spec.full[:1] if smoke else spec.full

        def one_pass():
            return full_pass(names, quick=smoke)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        first = len(tracer.tasks)
        wall, outcomes = one_pass()
        tracer.end_task("(outside tasks)")
        passes.append(Pass(wall, outcomes, tracer.tasks[first:]))
        elapsed = time.perf_counter() - start
        if smoke or elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


# ----------------------------------------------------------------- metrics

def _spans(p: Pass):
    for task in p.spans:
        for m in task["methods"]:
            yield m


def pass_setup_s(p: Pass) -> float:
    return sum(m["self_ns"] for m in _spans(p)
               if (m["layer"], m["method"]) in SETUP_SPANS) / 1e9


def pass_requests(p: Pass) -> float:
    return sum(t.result.dram_requests for t in p.tasks if not t.problems)


def end_to_end(passes: list[Pass], import_s: float) -> dict[str, float]:
    """The user-facing metrics: medians over passes."""
    setups = [pass_setup_s(p) for p in passes]
    rates = [pass_requests(p) / (p.wall - s) / 1e3
             for p, s in zip(passes, setups)]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": import_s + statistics.median(setups),
        "sim_kreq_per_s": statistics.median(rates),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def speedup_geomean(p: Pass) -> float:
    """Geomean over benchmarks of baseline cycles / DX100 cycles; 0 when
    the pass has no baseline/DX100 pair."""
    cycles: dict[str, dict[str, int]] = {}
    for t in p.tasks:
        if not t.problems:
            cycles.setdefault(t.result.workload, {})[t.result.config] = \
                t.result.cycles
    ratios = [c["baseline"] / c["dx100"] for c in cycles.values()
              if "baseline" in c and "dx100" in c]
    if not ratios:
        return 0.0
    from repro.common.stats import geomean
    return geomean(ratios)


def pass_layers(p: Pass, validated: bool) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Self times are probe-corrected.  The twins' self time, spread evenly
    over all probed calls, gives the in-place cost of one probe; each
    call's cost is taken from its caller's self time (or from glue for a
    call with no probed caller), where most of it lands.  The corrected
    self times plus ``sim.glue_s`` add up to ``trace.corrected_wall_s``,
    the traced wall minus the cost of every probe and twin."""
    self_ns: Counter = Counter()      # (layer, method) -> corrected ns
    layer_ns: Counter = Counter()     # layer -> corrected ns
    calls: Counter = Counter()
    layer_calls: Counter = Counter()
    counts: Counter = Counter()
    roots = 0
    for task in p.spans:
        roots += task["root_calls"]
        counts.update(task["counts"])
    spans = list(_spans(p))
    raw_ns = sum(m["self_ns"] for m in spans)
    twins = [m for m in spans if m["layer"] == TWIN]
    total_calls = sum(m["calls"] for m in twins)
    probe_ns = _ratio(sum(m["self_ns"] for m in twins), total_calls)
    for m in spans:
        if m["layer"] == TWIN:
            continue
        key = (m["layer"], m["method"])
        ns = m["self_ns"] - m["child_calls"] * probe_ns
        self_ns[key] += ns
        layer_ns[m["layer"]] += ns
        calls[key] += m["calls"]
        layer_calls[m["layer"]] += m["calls"]
    wall_ns = p.wall * 1e9
    glue_ns = wall_ns - raw_ns - roots * probe_ns
    corrected_ns = wall_ns - 2 * total_calls * probe_ns
    requests = counts["dram.requests"]
    transfers = counts["dram.remote.transfers"]
    speedup = speedup_geomean(p)
    return {
        "workloads.generate_s": self_ns["workloads", "generate"] / 1e9,
        "workloads.trace_s": self_ns["workloads", "trace"] / 1e9,
        "workloads.schedule_s": self_ns["workloads", "schedule"] / 1e9,
        "workloads.validate_s": self_ns["workloads", "validate"] / 1e9,
        "core.self_s": layer_ns["core"] / 1e9,
        "core.instructions": counts["core.instructions"],
        "core.ns_per_instr": _ratio(layer_ns["core"],
                                    counts["core.instructions"]),
        "cache.self_s": layer_ns["cache"] / 1e9,
        "cache.calls": layer_calls["cache"],
        "cache.ns_per_call": _ratio(layer_ns["cache"], layer_calls["cache"]),
        "cache.snoop_calls": calls["cache", "snoop"],
        "cache.l1_hit_rate": _ratio(counts["cache.l1_hits"],
                                    counts["cache.l1_accesses"]),
        "cache.llc_hit_rate": _ratio(counts["cache.llc_hits"],
                                     counts["cache.llc_accesses"]),
        "cache.mshr_coalesced": counts["cache.mshr_coalesced"],
        "prefetch.self_s": layer_ns["prefetch"] / 1e9,
        "prefetch.observe_calls": calls["prefetch", "observe"],
        "prefetch.issued": counts["prefetch.issued"],
        "dram.self_s": layer_ns["dram"] / 1e9,
        "dram.requests": requests,
        "dram.ns_per_req": _ratio(layer_ns["dram"], requests),
        "dram.complete_calls": calls["dram", "complete"],
        "dram.row_hit_rate": _ratio(counts["dram.row_hits"], requests),
        "dram.mean_occupancy": _ratio(counts["dram.occupancy_x_requests"],
                                      requests),
        "dram.write_frac": _ratio(counts["dram.writes"], requests),
        "dram.remote.self_s": layer_ns["dram.remote"] / 1e9,
        "dram.remote.transfers": transfers,
        "dram.remote.ns_per_transfer": _ratio(layer_ns["dram.remote"],
                                              transfers),
        "dram.remote.out_wait": _ratio(counts["dram.remote.out_wait"],
                                       transfers),
        "dram.remote.ret_wait": _ratio(counts["dram.remote.ret_wait"],
                                       transfers),
        "dx100.self_s": layer_ns["dx100"] / 1e9,
        "dx100.instructions": counts["dx100.instructions"],
        "dx100.tile_lines": counts["dx100.tile_lines"],
        "dx100.ns_per_line": _ratio(layer_ns["dx100"],
                                    counts["dx100.tile_lines"]),
        "dx100.coalescing": _ratio(counts["dx100.elements"],
                                   counts["dx100.indirect_lines"]),
        "dx100.drains": counts["dx100.drains"],
        "sim.init_s": self_ns["sim", "init"] / 1e9,
        "sim.collect_s": self_ns["sim", "collect"] / 1e9,
        "sim.glue_s": glue_ns / 1e9,
        "sim.glue_frac": _ratio(glue_ns, corrected_ns),
        "sim.cycles": counts["sim.cycles"],
        "sim.speedup_geomean_dx100": speedup,
        "sim.paper_gap_pct": (100.0 * (speedup / PAPER_SPEEDUP_GEOMEAN - 1)
                              if validated and speedup else 0.0),
        "trace.probe_ns": probe_ns,
        "trace.overhead_pct": 100.0 * _ratio(2 * total_calls * probe_ns,
                                             wall_ns),
        "trace.wall_s": p.wall,
        "trace.corrected_wall_s": corrected_ns / 1e9,
    }


def per_layer(passes: list[Pass], validated: bool) -> dict[str, float]:
    rows = [pass_layers(p, validated) for p in passes]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def task_outputs(p: Pass) -> list[dict]:
    """Each task's pinned output fields (``GOLDEN_FIELDS``), or its error."""
    from repro.sim.sweep import GOLDEN_FIELDS
    out = []
    for t in p.tasks:
        if isinstance(t.result, BaseException):
            out.append({"task": t.label, "error": repr(t.result)})
        else:
            out.append({"task": t.label,
                        **{f: getattr(t.result, f) for f in GOLDEN_FIELDS}})
    return out


# -------------------------------------------------------------------- main

def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    return ap.parse_args(argv)


def result_path(out: Path, workload: str, trace: int) -> Path:
    return out / f"{workload}{'.trace' if trace else ''}.json"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    import repro.sim.runner  # noqa: F401  (the import is set-up time)
    import repro.workloads  # noqa: F401
    from repro.sim.sweep import load_golden
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install_probes(tracer, args.seed, traced=bool(args.trace))
    golden = load_golden() if spec.golden and args.seed == 0 else None
    passes = run_passes(spec, tracer, args.seconds, args.smoke, golden)

    problems = [f"pass {i}: {t.label}: {msg}"
                for i, p in enumerate(passes) for t in p.tasks
                for msg in t.problems]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "attempted": sum(len(p.tasks) for p in passes),
        "failed": sum(1 for p in passes for t in p.tasks if t.problems),
        "problems": problems,
        "validated": spec.golden,
        "outputs": task_outputs(passes[0]),
    }
    if args.trace:
        record["metrics"] = per_layer(passes, spec.golden)
        record["spans"] = [p.spans for p in passes]
    else:
        record["metrics"] = end_to_end(passes, import_s)
    args.out.mkdir(parents=True, exist_ok=True)
    path = result_path(args.out, args.workload, args.trace)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
