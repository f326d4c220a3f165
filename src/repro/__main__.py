"""Command-line runner, mirroring the paper artifact's automation scripts.

Usage::

    python -m repro list                      # available benchmarks
    python -m repro run IS PR --configs baseline dx100
    python -m repro run --all --quick --csv results/results.csv
    python -m repro sweep --quick --jobs 4    # parallel + cached grid
    python -m repro campaign 'benchmarks=IS,CG dram=ddr4,ddr5' --workers 2
    python -m repro campaign --resume 20260808-1200 --workers 4
    python -m repro run IS --quick --trace results/trace.json
    python -m repro timeline IS --quick       # ASCII observability timeline
    python -m repro serve --tenants 2 --aggressor 1   # multi-tenant QoS
    python -m repro golden check              # every golden suite, bitwise
    python -m repro golden update <suite>     # quick | memtech | tenancy
    python -m repro area                      # Table 4

Each run prints a comparison table; ``--csv`` additionally writes the raw
metrics, like the artifact's ``results.csv``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.common import SystemConfig
from repro.common.config import DRAM_PRESETS, dram_preset
from repro.dx100.area import area_power
from repro.sim import run_baseline, run_dx100
from repro.sim.report import comparison_table, to_csv
from repro.workloads import MAIN_BENCHMARKS, QUICK_BENCHMARKS

CONFIG_BUILDERS = {
    "baseline": lambda cores: SystemConfig.baseline_scaled(cores),
    "dmp": lambda cores: SystemConfig.dmp_scaled(cores),
    "dx100": lambda cores: SystemConfig.dx100_scaled(cores),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DX100 reproduction benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmarks")

    run = sub.add_parser("run", help="run benchmarks")
    run.add_argument("benchmarks", nargs="*",
                     help="benchmark names (see `list`)")
    run.add_argument("--all", action="store_true",
                     help="run all 12 benchmarks")
    run.add_argument("--quick", action="store_true",
                     help="use the reduced dataset sizes")
    run.add_argument("--configs", nargs="+", default=None,
                     choices=sorted(CONFIG_BUILDERS),
                     help="configurations to run (default: baseline dx100; "
                          "--scale full defaults to dx100 alone)")
    run.add_argument("--cores", type=int, default=4)
    run.add_argument("--audit", action="store_true",
                     help="attach the JEDEC command-stream auditor to every "
                          "memory channel and fail if any timing constraint "
                          "is violated")
    run.add_argument("--csv", metavar="PATH",
                     help="also write raw metrics as CSV")
    run.add_argument("--stats-dir", metavar="DIR",
                     help="write a full gem5-style stats dump per run")
    run.add_argument("--trace", metavar="PATH",
                     help="record a Chrome trace-event JSON (load in "
                          "Perfetto / chrome://tracing); with several runs "
                          "the benchmark and config names are inserted "
                          "before the extension")
    run.add_argument("--sample-every", type=int, default=0, metavar="N",
                     help="snapshot the timeline samplers every N cycles "
                          "(0 = off; --trace alone defaults to 1000)")
    run.add_argument("--scale", choices=["main", "quick", "full"],
                     default=None,
                     help="dataset scale: main (default), quick (alias for "
                          "--quick), or full — paper-sized footprints far "
                          "past every cache (2^25-key IS etc.); full "
                          "defaults to the dx100 configuration and writes "
                          "results/full_scale.json")
    run.add_argument("--frontend", choices=["batched", "scalar"],
                     default=None,
                     help="force the simulation front-end for every run "
                          "(default: the config's front-end, i.e. batched; "
                          "scalar replays the per-op cache/core oracle)")
    run.add_argument("--dram", choices=sorted(DRAM_PRESETS), default=None,
                     help="memory technology preset (default: ddr4; cxl "
                          "puts the pool behind the modeled far-memory "
                          "link)")

    sweep = sub.add_parser(
        "sweep",
        help="run the benchmark x configuration grid in parallel, backed "
             "by the content-addressed run cache",
    )
    sweep.add_argument("benchmarks", nargs="*",
                       help="benchmark names (default: all 12)")
    sweep.add_argument("--quick", action="store_true",
                       help="use the reduced dataset sizes")
    sweep.add_argument("--configs", nargs="+",
                       default=["baseline", "dmp", "dx100"],
                       choices=sorted(CONFIG_BUILDERS))
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or the "
                            "CPU count; 1 = strictly serial)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="re-simulate everything, ignoring the run cache")
    sweep.add_argument("--cache-dir", metavar="DIR",
                       help="run-cache location (default: results/.runcache "
                            "or $REPRO_CACHE_DIR)")
    sweep.add_argument("--json", metavar="PATH",
                       help="where to write the structured sweep record "
                            "(default: results/sweep.json)")
    sweep.add_argument("--prune-cache", action="store_true",
                       help="first delete cache entries from older model "
                            "versions")
    sweep.add_argument("--sample-every", type=int, default=0, metavar="N",
                       help="attach the timeline samplers to every run "
                            "(period N cycles; summaries land in each "
                            "result's extra fields; 0 = off)")
    sweep.add_argument("--engine", choices=["batched", "scalar"],
                       default=None,
                       help="force the DRAM engine for every run (default: "
                            "the config's engine, i.e. batched; --engine "
                            "scalar runs the oracle)")
    sweep.add_argument("--frontend", choices=["batched", "scalar"],
                       default=None,
                       help="force the simulation front-end for every run "
                            "(scalar replays the per-op cache/core oracle)")
    sweep.add_argument("--dram", choices=sorted(DRAM_PRESETS), default=None,
                       help="memory technology preset for every task "
                            "(default: ddr4; cxl puts the pool behind the "
                            "modeled far-memory link)")
    sweep.add_argument("--profile", action="store_true",
                       help="after the timed sweep, re-run the grid once "
                            "under cProfile and record per-component and "
                            "pipeline-stage tottimes in "
                            "BENCH_mainsweep.json (the recorded wall_s "
                            "stays un-instrumented)")

    campaign = sub.add_parser(
        "campaign",
        help="run a resumable multi-worker campaign from a declarative "
             "spec ('benchmarks=IS,CG dram=ddr4,ddr5 tile=4k:64k "
             "tenants=1:8'); state persists in results/.campaigns/<id> "
             "and an interrupted campaign resumes with zero duplicated "
             "simulation",
    )
    campaign.add_argument("spec", nargs="?", default="",
                          help="spec line of key=values clauses (empty = "
                               "the full default grid); see "
                               "EXPERIMENTS.md 'Campaigns'")
    campaign.add_argument("--id", dest="cid", default=None,
                          help="campaign id (default: a timestamp); the "
                               "manifest lives in results/.campaigns/<id>")
    campaign.add_argument("--resume", metavar="ID",
                          help="resume an existing campaign instead of "
                               "creating one (only non-done tasks run)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (default: 1 = in-process "
                               "serial)")
    campaign.add_argument("--root", metavar="DIR", default=None,
                          help="campaign root (default: results/.campaigns)")
    campaign.add_argument("--no-cache", action="store_true",
                          help="ignore the run cache (every task simulates)")
    campaign.add_argument("--cache-dir", metavar="DIR",
                          help="run-cache location (default: "
                               "results/.runcache or $REPRO_CACHE_DIR)")
    campaign.add_argument("--lease-ttl", type=float, default=30.0,
                          metavar="S",
                          help="seconds without a heartbeat before a "
                               "worker's task lease expires and is "
                               "reclaimed (default: 30)")
    campaign.add_argument("--max-retries", type=int, default=2,
                          help="failed-task retry budget with capped "
                               "exponential backoff (default: 2)")
    campaign.add_argument("--dry-run", action="store_true",
                          help="expand and print the task grid, then exit "
                               "without creating a campaign")
    campaign.add_argument("--no-bench", action="store_true",
                          help="don't merge the campaign stats into "
                               "BENCH_mainsweep.json (smoke/CI runs)")

    timeline = sub.add_parser(
        "timeline",
        help="run one benchmark with the observability samplers attached "
             "and print an ASCII timeline (RBH, bandwidth, occupancy, "
             "tile drains) plus the summary statistics",
    )
    timeline.add_argument("benchmark", nargs="?", default="IS",
                          help="benchmark name (default: IS)")
    timeline.add_argument("--mode", default="dx100",
                          choices=sorted(CONFIG_BUILDERS))
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
                          help="also write the Chrome trace-event JSON")

    prof = sub.add_parser(
        "profile",
        help="profile one benchmark run: cProfile hotspots, per-component "
             "attribution, and coarse stage timers",
    )
    prof.add_argument("benchmark", nargs="?", default="IS",
                      help="benchmark name (default: IS)")
    prof.add_argument("--mode", default="baseline",
                      choices=sorted(CONFIG_BUILDERS))
    prof.add_argument("--quick", action="store_true",
                      help="use the reduced dataset sizes")
    prof.add_argument("--top", type=int, default=25,
                      help="hotspot functions to report (default: 25)")
    prof.add_argument("--frontend", choices=["batched", "scalar"],
                      default=None,
                      help="simulation front-end to profile (default: the "
                           "config's front-end, i.e. batched)")
    prof.add_argument("--json", metavar="PATH",
                      help="also write the structured report as JSON")

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
    serve.add_argument("--no-check", action="store_true",
                       help="skip the per-tile QoS invariant checks")

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

    sub.add_parser("area", help="print the Table 4 area/power breakdown")
    return parser


def cmd_list() -> int:
    print(f"{'name':8s} {'suite':10s} pattern")
    for name, factory in MAIN_BENCHMARKS.items():
        wl = QUICK_BENCHMARKS[name]()
        print(f"{name:8s} {wl.suite:10s} {wl.pattern}")
    return 0


def cmd_run(args) -> int:
    """Run the selected benchmarks under the selected configurations."""
    from repro.workloads import FULL_BENCHMARKS

    scale = args.scale or ("quick" if args.quick else "main")
    registry = {"main": MAIN_BENCHMARKS, "quick": QUICK_BENCHMARKS,
                "full": FULL_BENCHMARKS}[scale]
    configs = args.configs
    if configs is None:
        # The full-scale footprints are only tractable offloaded: the
        # baseline's per-op trace would be tens of millions of ops.
        configs = ["dx100"] if scale == "full" else ["baseline", "dx100"]
    names = list(registry) if args.all else args.benchmarks
    if not names and scale == "full":
        names = ["IS"]
    if not names:
        print("no benchmarks selected (name them or pass --all)",
              file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown benchmarks: {', '.join(unknown)}"
              + (f" (at --scale full only {', '.join(registry)} are sized)"
                 if scale == "full" else ""),
              file=sys.stderr)
        return 2

    sample_every = args.sample_every
    if args.trace and not sample_every:
        sample_every = 1000
    multi = len(names) * len(configs) > 1

    results: dict[str, dict] = {}
    flat = []
    for name in names:
        runs = {}
        for config_name in configs:
            config = CONFIG_BUILDERS[config_name](args.cores)
            if args.dram is not None:
                config = replace(config, dram=dram_preset(args.dram))
            if args.audit:
                config = replace(config,
                                 dram=replace(config.dram, audit=True))
            if args.frontend is not None:
                config = replace(config, frontend=args.frontend)
            wl = registry[name]()
            obs = None
            if args.trace or sample_every:
                from repro.obs.events import EventBus
                obs = EventBus(trace=bool(args.trace),
                               sample_every=sample_every)
            if config_name == "dx100":
                runs[config_name] = run_dx100(wl, config, warm=False,
                                              obs=obs)
            else:
                runs[config_name] = run_baseline(wl, config, warm=False,
                                                 obs=obs)
            flat.append(runs[config_name])
            if args.trace:
                from pathlib import Path
                from repro.obs.trace import write_chrome_trace
                path = Path(args.trace)
                if multi:
                    path = path.with_name(
                        f"{path.stem}-{name}-{config_name}{path.suffix}")
                write_chrome_trace(obs, path)
                print(f"  trace written to {path}", file=sys.stderr)
            print(f"  done: {name} [{config_name}]", file=sys.stderr)
        results[name] = runs
    if args.stats_dir:
        # Per-run stats dumps require re-running with a retained system;
        # dump one representative system per (benchmark, config) instead.
        from pathlib import Path
        from repro.sim.statsdump import write_stats
        from repro.sim.system import SimSystem
        out_dir = Path(args.stats_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            config = CONFIG_BUILDERS[configs[0]](args.cores)
            if args.dram is not None:
                config = replace(config, dram=dram_preset(args.dram))
            system = SimSystem(config)
            wl = registry[name]()
            wl.generate(system.hostmem)
            system.multicore.run(wl.baseline_traces(config.cores))
            system.dram.drain()
            write_stats(system, out_dir / f"{name}.stats.txt")
    print(comparison_table(results))
    if scale == "full":
        # Record the paper-scale runs alongside the sweep artifacts so the
        # EXPERIMENTS table can cite committed numbers.
        import json
        from pathlib import Path
        out = Path("results/full_scale.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "scale": "full",
            "frontend": args.frontend or "batched",
            "runs": [
                {
                    "workload": r.workload,
                    "config": r.config,
                    "cycles": r.cycles,
                    "instructions": r.instructions,
                    "dram_bytes": r.dram_bytes,
                    "dram_requests": r.dram_requests,
                    "bandwidth_utilization": r.bandwidth_utilization,
                    "row_buffer_hit_rate": r.row_buffer_hit_rate,
                    "llc_mpki": r.llc_mpki,
                }
                for r in flat
            ],
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nfull-scale metrics written to {out}")
    if args.csv:
        to_csv(flat, args.csv)
        print(f"\nraw metrics written to {args.csv}")
    if args.audit:
        commands = sum(r.extra.get("audit_commands", 0) for r in flat)
        violations = sum(r.extra.get("audit_violations", 0) for r in flat)
        print(f"\naudit: {int(commands)} DRAM commands checked, "
              f"{int(violations)} timing violation(s)")
        if violations:
            for r in flat:
                if r.extra.get("audit_violations"):
                    print(f"--- {r.workload} [{r.config}] ---",
                          file=sys.stderr)
                    print(r.extra.get("audit_report", ""), file=sys.stderr)
            return 1
    return 0


def cmd_sweep(args) -> int:
    """Parallel, cached sweep over the benchmark x configuration grid."""
    from pathlib import Path

    from repro.sim.sweep import RunCache, run_main_sweep, write_sweep_records

    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs}); omit it for the "
              f"REPRO_JOBS/CPU-count default", file=sys.stderr)
        return 2

    if args.prune_cache:
        removed = RunCache(args.cache_dir).prune()
        print(f"pruned {removed} stale cache entr"
              f"{'y' if removed == 1 else 'ies'}", file=sys.stderr)

    quick = args.quick
    benchmarks = args.benchmarks or None
    modes = tuple(args.configs)
    try:
        outcome = run_main_sweep(
            quick=quick, benchmarks=benchmarks, modes=modes, jobs=args.jobs,
            cache=not args.no_cache, cache_dir=args.cache_dir,
            sample_every=args.sample_every,
            engine=args.engine, frontend=args.frontend, dram=args.dram,
        )
    except ValueError as exc:   # e.g. a bad REPRO_JOBS value
        print(exc, file=sys.stderr)
        return 2
    if args.profile:
        # Instrumented second pass, strictly serial, AFTER the timed sweep
        # so the recorded wall_s stays un-instrumented.
        from repro.sim.profile import profile_tasks
        from repro.sim.sweep import main_sweep_tasks
        print("profiling pass (serial, instrumented)...", file=sys.stderr)
        tasks = main_sweep_tasks(quick=quick, benchmarks=benchmarks,
                                 modes=modes, engine=args.engine,
                                 frontend=args.frontend, dram=args.dram)
        outcome.extras.update(profile_tasks(tasks))
    write_sweep_records(outcome, Path("results"), sweep_json=args.json)

    print(comparison_table(outcome.nested()))
    fresh_wall = sum(r.wall for r in outcome.runs if not r.cached)
    print(f"\n{len(outcome.runs)} runs in {outcome.wall:.1f}s wall "
          f"({outcome.jobs} job(s)): {outcome.cache_hits} cached, "
          f"{outcome.cache_misses} simulated "
          f"({fresh_wall:.1f}s of simulation)")
    print(f"sweep record: {args.json or 'results/sweep.json'}; "
          f"perf trajectory: BENCH_mainsweep.json")
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


def cmd_campaign(args) -> int:
    """Create or resume a campaign and drive it to completion."""
    import time as _time
    from pathlib import Path

    from repro.obs.events import EventBus
    from repro.sim.fabric import (
        RetryPolicy, build_tasks, campaign_dir, campaign_status,
        create_campaign, merge_bench_record, run_campaign,
    )
    from repro.sim.specs import SpecError

    if args.workers < 1:
        print(f"--workers must be >= 1 (got {args.workers})",
              file=sys.stderr)
        return 2

    if args.resume:
        path = campaign_dir(args.resume, args.root)
        if not (path / "campaign.json").exists():
            print(f"no campaign at {path}", file=sys.stderr)
            return 2
        status = campaign_status(path)
        print(f"resuming campaign {args.resume}: {status.done} done, "
              f"{status.failed} failed, {status.pending} pending, "
              f"{status.active} leased", file=sys.stderr)
    else:
        try:
            tasks = build_tasks(args.spec)
        except SpecError as exc:
            print(f"bad spec: {exc}", file=sys.stderr)
            return 2
        if not tasks:
            print("spec expands to zero tasks", file=sys.stderr)
            return 2
        if args.dry_run:
            print(f"{len(tasks)} task(s):")
            for task in tasks:
                print(f"  {task.tid:<28s} [{task.kind}] group={task.group}")
            return 0
        cid = args.cid or _time.strftime("%Y%m%d-%H%M%S")
        try:
            path = create_campaign(
                tasks, cid, root=args.root, spec_text=args.spec,
                retry=RetryPolicy(max_retries=args.max_retries),
                lease_ttl_s=args.lease_ttl,
                cache=not args.no_cache, cache_dir=args.cache_dir)
        except FileExistsError as exc:
            print(f"{exc} (use --resume {cid} to continue it)",
                  file=sys.stderr)
            return 2
        status = campaign_status(path)
        print(f"campaign {cid}: {status.total} task(s), "
              f"{status.done} already in the run cache, "
              f"{status.pending} to simulate", file=sys.stderr)

    bus = EventBus(trace=False)

    def render(mark) -> None:
        pending, active, done, failed, cache_hits, eta = mark
        eta_text = f", ~{eta:.0f}s left" if eta is not None else ""
        print(f"  [{done} done | {active} active | {pending} pending | "
              f"{failed} failed] cache hits {cache_hits}{eta_text}",
              file=sys.stderr)

    bus.campaign_listeners.append(render)
    summary = run_campaign(path, workers=args.workers,
                           cache=not args.no_cache,
                           cache_dir=args.cache_dir, bus=bus)
    if not args.no_bench:
        merge_bench_record(summary, Path("BENCH_mainsweep.json"))

    print(f"\ncampaign {summary['id']}: {summary['done']}/{summary['total']} "
          f"done, {summary['failed']} failed "
          f"({summary['cache_hits']} cache hit(s), "
          f"{summary['sim_wall_s']}s simulating, "
          f"{summary.get('wall_s', 0.0)}s wall)")
    print(f"report: {path / 'summary.md'}")
    return 1 if summary["failed"] else 0


def cmd_profile(args) -> int:
    """Profile one benchmark run and report where the wall-clock goes."""
    from repro.sim.profile import format_report, profile_run

    try:
        report = profile_run(benchmark=args.benchmark, mode=args.mode,
                             quick=args.quick, top=args.top,
                             frontend=args.frontend)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(format_report(report))
    if args.json:
        import json
        from pathlib import Path
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"\nstructured report written to {path}")
    return 0


def cmd_timeline(args) -> int:
    """Run one benchmark with samplers on and print the ASCII timeline."""
    from repro.obs.events import EventBus
    from repro.obs.timeline import render_timeline

    registry = QUICK_BENCHMARKS if args.quick else MAIN_BENCHMARKS
    if args.benchmark not in registry:
        print(f"unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    if args.sample_every <= 0:
        print("--sample-every must be positive", file=sys.stderr)
        return 2
    config = CONFIG_BUILDERS[args.mode](args.cores)
    if args.dram is not None:
        config = replace(config, dram=dram_preset(args.dram))
    wl = registry[args.benchmark]()
    obs = EventBus(trace=bool(args.trace), sample_every=args.sample_every)
    if args.mode == "dx100":
        result = run_dx100(wl, config, warm=False, obs=obs)
    else:
        result = run_baseline(wl, config, warm=False, obs=obs)

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
        path = Path(args.trace)
        write_chrome_trace(obs, path)
        print(f"\ntrace written to {path}")
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
    report = serve_run(specs, config=config, borrow=not args.no_borrow,
                       check=not args.no_check)
    print(report.render())
    return 0


def cmd_area() -> int:
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
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "timeline":
        return cmd_timeline(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "golden":
        return cmd_golden(args)
    if args.command == "area":
        return cmd_area()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
