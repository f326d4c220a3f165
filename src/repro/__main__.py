"""Command-line runner, mirroring the paper artifact's automation scripts.

Usage::

    python -m repro list                      # available benchmarks
    python -m repro run IS PR --configs baseline dx100
    python -m repro run --all --quick --jobs 4 --csv results/results.csv
    python -m repro run IS --scale full --json results/full_scale.json
    python -m repro run 'G*' --dram ddr4 ddr5 --tile 4096 8192 --dry-run
    python -m repro timeline IS --quick       # ASCII observability timeline
    python -m repro timeline IS --quick --trace results/trace.json
    python -m repro serve --tenants 2 --aggressor 1   # multi-tenant QoS
    python -m repro golden check              # every golden suite, bitwise
    python -m repro golden update <suite>     # quick | memtech | tenancy
    python -m repro area                      # Table 4

``run`` turns its flags into tasks (:func:`repro.sim.sweep.task_grid`)
and executes them in parallel on :func:`repro.sim.sweep.run_sweep`, so a
repeated run is answered by the run cache.  ``--dram``, ``--tile`` and
``--cores`` take several values each and span the grid over them;
``--dry-run`` lists the tasks without running them.  It prints a
comparison table; ``--csv`` additionally writes the raw metrics, like the
artifact's ``results.csv``, and ``--json`` the structured run record.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from repro.common.config import DRAM_PRESETS
from repro.dx100.area import area_power
from repro.sim.report import comparison_table, to_csv
from repro.sim.sweep import MODES, SCALES
from repro.workloads import MAIN_BENCHMARKS, QUICK_BENCHMARKS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DX100 reproduction benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmarks").set_defaults(
        func=cmd_list)

    run = sub.add_parser(
        "run",
        help="run the benchmark x configuration grid on the task executor, "
             "in parallel and backed by the content-addressed run cache",
    )
    run.add_argument("benchmarks", nargs="*",
                     help="benchmark names or fnmatch globs such as 'G*' "
                          "(see `list`)")
    run.add_argument("--all", action="store_true",
                     help="run every benchmark of the chosen scale")
    run.add_argument("--quick", dest="scale", action="store_const",
                     const="quick", help="alias for --scale quick")
    run.add_argument("--scale", choices=SCALES,
                     help="dataset scale: main (default), quick (reduced "
                          "sizes), or full — paper-sized footprints far past "
                          "every cache (2^25-key IS etc.; IS, CG and XRAGE "
                          "only)")
    run.add_argument("--configs", nargs="+", default=None,
                     choices=MODES,
                     help="configurations to run (default: baseline dx100; "
                          "--scale full defaults to dx100 alone)")
    run.add_argument("--cores", type=int, nargs="+", default=[4],
                     metavar="N", help="core counts (default: 4)")
    run.add_argument("--audit", action="store_true",
                     help="attach the JEDEC command-stream auditor to every "
                          "memory channel and fail if any timing constraint "
                          "is violated")
    run.add_argument("--csv", metavar="PATH",
                     help="also write raw metrics as CSV")
    run.add_argument("--json", metavar="PATH",
                     help="also write the structured run record (per-task "
                          "key, cache status, wall-clock and RunResult)")
    run.add_argument("--sample-every", type=int, default=0, metavar="N",
                     help="attach the timeline samplers to every run "
                          "(period N cycles; summaries land in each "
                          "result's extra fields; 0 = off)")
    run.add_argument("--engine", choices=["batched", "scalar"],
                     default=None,
                     help="force the DRAM engine for every run (default: "
                          "the config's engine, i.e. batched; --engine "
                          "scalar runs the oracle)")
    run.add_argument("--frontend", choices=["batched", "scalar"],
                     default=None,
                     help="force the simulation front-end for every run "
                          "(default: the config's front-end, i.e. batched; "
                          "scalar replays the per-op cache/core oracle)")
    run.add_argument("--dram", nargs="+", choices=sorted(DRAM_PRESETS),
                     default=None,
                     help="memory technology presets (default: ddr4; cxl "
                          "puts the pool behind the modeled far-memory "
                          "link)")
    run.add_argument("--tile", type=int, nargs="+", default=None,
                     metavar="N",
                     help="DX100 tile sizes in elements (dx100 tasks only; "
                          "default: the config's 16384)")
    run.add_argument("--dry-run", action="store_true",
                     help="print the task grid with short cache keys, then "
                          "exit without simulating")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: REPRO_JOBS or the "
                          "CPU count; 1 = strictly serial)")
    run.add_argument("--no-cache", action="store_true",
                     help="re-simulate everything, ignoring the run cache")
    run.add_argument("--cache-dir", metavar="DIR",
                     help="run-cache location (default: results/.runcache "
                          "or $REPRO_CACHE_DIR)")
    run.add_argument("--prune-cache", action="store_true",
                     help="first delete cache entries from older model "
                          "versions")
    run.set_defaults(scale="main", func=cmd_run)

    timeline = sub.add_parser(
        "timeline",
        help="run one benchmark with the observability samplers attached "
             "and print an ASCII timeline (RBH, bandwidth, occupancy, "
             "tile drains) plus the summary statistics",
    )
    timeline.add_argument("benchmark", nargs="?", default="IS",
                          help="benchmark name (default: IS)")
    timeline.add_argument("--mode", default="dx100",
                          choices=MODES)
    timeline.add_argument("--quick", action="store_true",
                          help="use the reduced dataset sizes")
    timeline.add_argument("--cores", type=int, default=4)
    timeline.add_argument("--dram", choices=sorted(DRAM_PRESETS),
                          default=None,
                          help="DRAM preset (e.g. cxl adds the link-queue "
                               "sparkline; default: the mode's own)")
    timeline.add_argument("--sample-every", type=int, default=1000,
                          metavar="N",
                          help="sampling period in cycles (default: 1000)")
    timeline.add_argument("--width", type=int, default=72,
                          help="sparkline width in characters (default: 72)")
    timeline.add_argument("--trace", metavar="PATH",
                          help="also write the Chrome trace-event JSON, "
                               "then check it and exit 1 if it is "
                               "malformed")
    timeline.set_defaults(func=cmd_timeline)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant QoS serving layer: N closed-loop "
             "tenant streams over one shared DRAM system, with token-"
             "bucket admission, fair scheduling, and partitioned Row "
             "Table / request buffers; prints per-tenant p50/p99 latency, "
             "throughput, and the Jain fairness index",
    )
    serve.add_argument("--tenants", type=int, default=2,
                       help="concurrent tenant streams (default: 2)")
    serve.add_argument("--tiles", type=int, default=4,
                       help="tiles per tenant (default: 4)")
    serve.add_argument("--tile-lines", type=int, default=96,
                       help="lines per tile (default: 96)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--aggressor", type=int, default=-1, metavar="T",
                       help="mark tenant index T as an interference "
                            "generator (4x token refill; -1 = none)")
    serve.add_argument("--no-borrow", action="store_true",
                       help="disable work-conserving borrow (hard "
                            "partitioning only)")
    serve.add_argument("--engine", choices=["batched", "scalar"],
                       default="batched",
                       help="DRAM engine (scalar = the oracle replay)")
    serve.set_defaults(func=cmd_serve)

    golden = sub.add_parser(
        "golden",
        help="re-run the golden-pinned suites (quick, memtech, tenancy) and "
             "diff them bitwise against tests/golden/ (check) or rewrite "
             "the files after an intentional model change (update); never "
             "touches the run cache",
    )
    golden.add_argument("action", choices=["check", "update"])
    golden.add_argument("suites", nargs="*",
                        help="suite names (default: all)")
    golden.add_argument("--engine", choices=["batched", "scalar"],
                        default=None,
                        help="force the DRAM engine (scalar = the oracle "
                             "replay; must match the goldens bitwise)")
    golden.add_argument("--frontend", choices=["batched", "scalar"],
                        default=None,
                        help="force the cache/core front end (scalar = the "
                             "oracle replay; the tenancy suite has none)")
    golden.set_defaults(func=cmd_golden)

    sub.add_parser("area", help="print the Table 4 area/power breakdown"
                   ).set_defaults(func=cmd_area)
    return parser


def cmd_list(args) -> int:
    print(f"{'name':8s} {'suite':10s} pattern")
    for name, factory in MAIN_BENCHMARKS.items():
        wl = QUICK_BENCHMARKS[name]()
        print(f"{name:8s} {wl.suite:10s} {wl.pattern}")
    return 0


def _table(runs, dram_of: dict, args) -> dict:
    """benchmark -> mode -> RunResult for the comparison table.  An axis
    given several values splits it: DRAM presets and core counts into rows
    (``IS cxl 8c``), tile sizes into DX100 columns (``dx4096``)."""
    table: dict = {}
    for run in runs:
        task = run.task
        row = task.benchmark
        if dram_of:
            row += f" {dram_of[task]}"
        if len(args.cores) > 1:
            row += f" {task.config.cores}c"
        column = task.mode
        if args.tile and len(args.tile) > 1 and task.config.dx100:
            column = f"dx{task.config.dx100.tile_elems}"
        table.setdefault(row, {})[column] = run.result
    return table


def cmd_run(args) -> int:
    """Run the selected benchmarks under the selected configurations as
    cached tasks on ``run_sweep``."""
    import json
    from pathlib import Path

    from repro.sim.sweep import RunCache, run_sweep, task_grid

    if not args.all and not args.benchmarks:
        print("no benchmarks selected (name them or pass --all)",
              file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs}); omit it for the "
              f"REPRO_JOBS/CPU-count default", file=sys.stderr)
        return 2
    # The full-scale footprints are only tractable offloaded: the
    # baseline's per-op trace would be tens of millions of ops.
    modes = args.configs or (["dx100"] if args.scale == "full"
                             else ["baseline", "dx100"])
    names = None if args.all else args.benchmarks
    drams = tuple(args.dram or (None,))
    grid = dict(cores=tuple(args.cores), tiles=tuple(args.tile or (None,)),
                audit=args.audit, engine=args.engine, frontend=args.frontend,
                sample_every=args.sample_every)
    try:
        tasks = task_grid(names, tuple(modes), args.scale, drams=drams,
                          **grid)
        # The preset each task runs on, which its config does not name.
        dram_of = {} if len(drams) == 1 else {
            task: dram for dram in drams
            for task in task_grid(names, tuple(modes), args.scale,
                                  drams=(dram,), **grid)}
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.dry_run:
        print(f"{len(tasks)} task(s):")
        for task in tasks:
            print(f"  {task.label():<28s} {task.key()[:12]}")
        return 0
    if args.prune_cache:
        removed = RunCache(args.cache_dir).prune()
        print(f"pruned {removed} stale cache entr"
              f"{'y' if removed == 1 else 'ies'}", file=sys.stderr)

    def progress(run) -> None:
        print(f"  {'cached' if run.cached else 'done'}: "
              f"{run.task.benchmark} [{run.task.mode}]", file=sys.stderr)

    try:
        outcome = run_sweep(tasks, jobs=args.jobs, cache=not args.no_cache,
                            cache_dir=args.cache_dir, progress=progress)
    except ValueError as exc:   # e.g. a bad REPRO_JOBS value
        print(exc, file=sys.stderr)
        return 2
    results = [run.result for run in outcome.runs]
    print(comparison_table(_table(outcome.runs, dram_of, args)))
    fresh_wall = sum(run.wall for run in outcome.runs if not run.cached)
    print(f"\n{len(outcome.runs)} runs in {outcome.wall:.1f}s wall "
          f"({outcome.jobs} job(s)): {outcome.cache_hits} cached, "
          f"{outcome.cache_misses} simulated "
          f"({fresh_wall:.1f}s of simulation)")
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(outcome.to_json_dict(), indent=2,
                                   sort_keys=True) + "\n")
        print(f"run record written to {path}")
    if args.csv:
        to_csv(results, args.csv)
        print(f"raw metrics written to {args.csv}")
    if args.audit:
        commands = sum(r.extra.get("audit_commands", 0) for r in results)
        violations = sum(r.extra.get("audit_violations", 0) for r in results)
        print(f"\naudit: {int(commands)} DRAM commands checked, "
              f"{int(violations)} timing violation(s)")
        if violations:
            for r in results:
                if r.extra.get("audit_violations"):
                    print(f"--- {r.workload} [{r.config}] ---",
                          file=sys.stderr)
                    print(r.extra.get("audit_report", ""), file=sys.stderr)
            return 1
    return 0


def cmd_golden(args) -> int:
    """Re-run golden suites and diff (check) or rewrite (update) them."""
    from repro.sim import golden

    names = args.suites or list(golden.SUITES)
    unknown = [n for n in names if n not in golden.SUITES]
    if unknown:
        print(f"unknown golden suite(s): {', '.join(unknown)}; valid: "
              f"{', '.join(golden.SUITES)}", file=sys.stderr)
        return 2
    failed = 0
    for name in names:
        snapshot = golden.SUITES[name].run(args.engine, args.frontend)
        if args.action == "update":
            print(f"golden {name}: updated {golden.write(name, snapshot)}")
            continue
        try:
            problems = golden.diff(snapshot, golden.load(name))
        except FileNotFoundError:
            problems = [f"no golden file at {golden.SUITES[name].path}"]
        if problems:
            failed += 1
            print(f"golden {name}: FAILED ({len(problems)} mismatch(es)):",
                  file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
        else:
            print(f"golden {name}: passed (bitwise identical)")
    if failed:
        print("if the model change is intentional, regenerate with "
              "`python -m repro golden update <suite>`", file=sys.stderr)
    return 1 if failed else 0


def cmd_timeline(args) -> int:
    """Run one benchmark with samplers on and print the ASCII timeline."""
    from repro.obs.events import EventBus
    from repro.obs.timeline import render_timeline
    from repro.sim.sweep import execute_task, task_grid

    if args.sample_every <= 0:
        print("--sample-every must be positive", file=sys.stderr)
        return 2
    try:
        (task,) = task_grid([args.benchmark], (args.mode,),
                            "quick" if args.quick else "main",
                            cores=(args.cores,), drams=(args.dram,))
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    obs = EventBus(trace=bool(args.trace), sample_every=args.sample_every)
    result, _ = execute_task(task, obs=obs)

    print(f"{args.benchmark} [{args.mode}]: {result.cycles} cycles, "
          f"BW {result.bandwidth_utilization:.2f}, "
          f"RBH {result.row_buffer_hit_rate:.2f}")
    print()
    print(render_timeline(obs.timeline, width=args.width))
    summary = obs.summary()
    print()
    for key in sorted(summary):
        value = summary[key]
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"  {key:<28s} {shown}")
    if args.trace:
        from pathlib import Path
        from repro.obs.trace import write_chrome_trace
        from repro.obs.validate import validate_file
        path = Path(args.trace)
        write_chrome_trace(obs, path)
        print(f"\ntrace written to {path}")
        problems = validate_file(path)
        if problems:
            print(f"{path}: INVALID ({len(problems)} problem(s))",
                  file=sys.stderr)
            for p in problems[:20]:
                print(f"  {p}", file=sys.stderr)
            return 1
    return 0


def cmd_serve(args) -> int:
    """Run the multi-tenant serving layer."""
    from repro.common.config import DRAMConfig
    from repro.serve import make_tenants, serve_run

    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    specs = make_tenants(args.tenants, tiles=args.tiles,
                         tile_lines=args.tile_lines, seed=args.seed,
                         aggressor=args.aggressor)
    config = replace(DRAMConfig(), engine=args.engine)
    report = serve_run(specs, config=config, borrow=not args.no_borrow)
    print(report.render())
    return 0


def cmd_area(args) -> int:
    """Print the Table 4 area/power breakdown."""
    report = area_power()
    print(f"{'module':<16s} {'area mm2':>9s} {'power mW':>9s}")
    for name, (area, power) in report.modules.items():
        print(f"{name:<16s} {area:9.3f} {power:9.2f}")
    print(f"{'TOTAL (28nm)':<16s} {report.total_area_mm2:9.3f} "
          f"{report.total_power_mw:9.2f}")
    print(f"14nm: {report.area_14nm_mm2:.2f} mm2, "
          f"{report.overhead_percent:.1f}% of a 4-core processor")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``list | head -1``): exit quietly,
        # with stdout on devnull so the interpreter's last flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
