#!/usr/bin/env python3
"""Host-time benchmark of the DX100 simulator.

Runs each workload named in ``BENCHMARK.json`` (or the one ``--workload``
names) in its own fresh child process with one thread, one workload at a
time, and prints every metric by name with its unit, then one JSON line::

    {"correct": true, "attempted": 108, "failed": 0,
     "metrics": {"wall_s": {"value": 5.2, "unit": "s"}, ...}}

``--trace 0`` (the default) reports the end-to-end metrics; ``--trace 1``
(or a bare ``--trace``) probes every layer and reports the per-layer
metrics instead.  ``--smoke`` runs one quick-scale task per workload.
Results, one JSON file per workload, go under ``--out`` (default
``.bench_out`` in the repository root); the run writes nothing else.

    python3 benchmarks/perf/run.py --workload quick-grid --seed 0 \
        --seconds 20 --trace 0

Exits 0 when every task's output checked out, 1 when a task failed or a
child did not finish, 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Seconds a child may take before it is killed and the run fails, so a
#: hung simulation can never stall a whole benchmark run.
CHILD_TIMEOUT_S = 175

# Everything that can start a thread pool in the child is held to one.
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="run only this workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=0,
                    help="reseeds every workload's input generation")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measurement budget per workload; at least one "
                         "whole pass over its task list always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                    const=1, default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one quick-scale task per workload")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    return ap.parse_args(argv)


def run_child(workload: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in a fresh interpreter; its result record, or None
    if it failed to produce one."""
    import perf_harness
    path = perf_harness.result_path(args.out, workload, args.trace)
    path.unlink(missing_ok=True)
    env = dict(os.environ, **ONE_THREAD, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "perf_harness.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(args.out)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        # The child's own output goes to stderr: stdout carries results.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0 or not path.exists():
        print(f"{workload}: child exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    return json.loads(path.read_text())


def report(record: dict, declared: list[dict]) -> dict | None:
    """Print one workload's metrics; return its result line, or None if
    the child's metrics differ from the declared set."""
    metrics = record["metrics"]
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        print(f"{record['workload']}: metrics {sorted(metrics)} differ from "
              f"the declared {sorted(names)}", file=sys.stderr)
        return None
    print(f"# {record['workload']} (seed {record['seed']}): "
          f"{record['passes']} pass(es), {record['attempted']} tasks, "
          f"{record['failed']} failed")
    for m in declared:
        print(f"{m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}")
    if record["trace"] and not record["validated"]:
        print("# model outputs of this workload are unvalidated: the paper "
              "reports no number to compare them with")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(spec, argv)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    status = 0
    for workload in workloads:
        record = run_child(workload, args)
        line = None if record is None else report(record, declared)
        if line is None:
            return 1
        print(json.dumps(line), flush=True)
        if not line["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
