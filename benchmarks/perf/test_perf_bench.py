"""Self-tests of the host-time benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (tier-1's
``testpaths`` do not include this directory).  The module fixture runs
``run.py --smoke`` untraced and traced once each, in subprocesses, with
results under a temporary ``--out``; the other tests read those runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import perf_harness  # noqa: E402
from perf_probes import TWIN, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Repository artifacts a benchmark run must never write.
ARTIFACTS = ("BENCH_mainsweep.json", "results", "tests/golden")

#: Traced metrics that partition the probe-corrected traced wall.
SELF_TIMES = ("workloads.generate_s", "workloads.trace_s",
              "workloads.schedule_s", "workloads.validate_s", "core.self_s",
              "cache.self_s", "prefetch.self_s", "dram.self_s",
              "dram.remote.self_s", "dx100.self_s", "sim.init_s",
              "sim.collect_s", "sim.glue_s")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def digest(*paths: str) -> dict[str, str]:
    out = {}
    for rel in paths:
        base = ROOT / rel
        files = [base] if base.is_file() else sorted(
            f for f in base.rglob("*") if f.is_file())
        for f in files:
            out[str(f.relative_to(ROOT))] = hashlib.sha256(
                f.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    before = digest(*ARTIFACTS)
    runs = {}
    for trace in (0, 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke",
             "--trace", str(trace), "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[trace] = {
            "seconds": time.perf_counter() - t0,
            "stdout": proc.stdout,
            "records": {
                name: json.loads(perf_harness.result_path(
                    out, name, trace).read_text())
                for name in perf_harness.WORKLOADS},
        }
    return {"runs": runs, "before": before, "after": digest(*ARTIFACTS)}


def test_benchmark_json_is_well_formed():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert spec["paths"] == ["benchmarks/perf"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(
        perf_harness.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert len(names) == len(set(names))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(smoke, trace):
    run = smoke["runs"][trace]
    assert run["seconds"] < 30
    declared = {m["name"]: m["unit"]
                for m in load_spec()["per_layer" if trace else "end_to_end"]}
    lines = run["stdout"].splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(perf_harness.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            declared
        for v in result["metrics"].values():
            assert math.isfinite(v["value"])
    printed = [line.split() for line in lines if line[:1] not in "#{"]
    for name, value, unit in printed:
        assert declared[name] == unit
        float(value)


def test_smoke_leaves_repo_artifacts_untouched(smoke):
    assert smoke["before"], "no artifacts found to guard"
    assert smoke["after"] == smoke["before"]


def test_tracing_is_metric_neutral(smoke):
    untraced, traced = (smoke["runs"][t]["records"] for t in (0, 1))
    for name in perf_harness.WORKLOADS:
        assert traced[name]["outputs"] == untraced[name]["outputs"], name
        assert all("error" not in o for o in untraced[name]["outputs"])


def test_traced_layers_add_up_to_the_wall(smoke):
    for name, record in smoke["runs"][1]["records"].items():
        m = record["metrics"]
        overhead = m["trace.wall_s"] * m["trace.overhead_pct"] / 100
        parts = sum(m[k] for k in SELF_TIMES)
        assert parts == pytest.approx(m["trace.corrected_wall_s"],
                                      rel=1e-9), name
        assert parts + overhead == pytest.approx(m["trace.wall_s"],
                                                 rel=1e-9), name
        spans = [s for p in record["spans"] for s in p]
        assert spans and all(s["root_calls"] >= 0 for s in spans)


def test_tracer_folds_nested_calls_into_self_time():
    class Layer:
        def outer(self, n):
            for _ in range(n):
                self.inner()
            time.sleep(0.002)

        def inner(self):
            time.sleep(0.001)

    tracer = Tracer()
    tracer.patch(Layer, "outer", "a")
    tracer.patch(Layer, "inner", "b")
    Layer().outer(3)
    Layer().inner()
    tracer.end_task("t", {"work": 4})
    (task,) = tracer.tasks
    by = {(m["layer"], m["method"]): m for m in task["methods"]}
    outer, inner = by["a", "outer"], by["b", "inner"]
    twin_outer, twin_inner = by[TWIN, "a.outer"], by[TWIN, "b.inner"]
    assert task["root_calls"] == 2 and task["counts"] == {"work": 4}
    assert outer["calls"] == twin_outer["calls"] == 1
    assert inner["calls"] == twin_inner["calls"] == 4
    # The probed outer's children are the inner twins; each twin's only
    # child is the probe it wraps, so its self time is that probe's cost.
    assert outer["child_calls"] == 3 and twin_inner["child_calls"] == 4
    assert outer["self_ns"] >= 2_000_000
    assert outer["self_ns"] < outer["incl_ns"] - 3_000_000
    assert 0 < twin_inner["self_ns"] < inner["self_ns"]
    tracer.end_task("empty")
    assert len(tracer.tasks) == 1


# ------------------------------------------------------ seeded output faults

def _result(**extra):
    from repro.sim.metrics import RunResult
    counts = dict(dram_reads=6.0, dram_writes=4.0, dram_row_hits=5.0,
                  dram_row_conflicts=3.0, dram_row_empty=2.0)
    counts.update(extra)
    return RunResult("IS", "baseline", cycles=100, instructions=50.0,
                     bandwidth_utilization=0.1, row_buffer_hit_rate=0.5,
                     request_buffer_occupancy=1.0, llc_mpki=2.0,
                     dram_bytes=640.0, dram_requests=10.0, extra=counts)


def test_balanced_result_passes_the_checks():
    assert perf_harness.task_problems(_result()) == []
    assert perf_harness.task_problems(_result(far_serviced=10.0),
                                      far=True) == []


@pytest.mark.parametrize("fault, far, needle", [
    (dict(dram_writes=5.0), False, "reads"),
    (dict(dram_row_empty=3.0), False, "row hits"),
    (dict(far_serviced=9.0), True, "far_serviced"),
    (dict(), True, "far_serviced"),
])
def test_unbalanced_counts_fail(fault, far, needle):
    problems = perf_harness.task_problems(_result(**fault), far=far)
    assert problems and needle in problems[0]


def test_nonpositive_cycles_fail():
    bad = replace(_result(), cycles=0)
    assert "cycles" in perf_harness.task_problems(bad)[0]


def _quick_tasks(benchmarks, mode="baseline"):
    from repro.sim.sweep import main_sweep_tasks
    return main_sweep_tasks(quick=True, benchmarks=benchmarks,
                            modes=(mode,))


def test_tampered_golden_value_fails():
    from repro.sim.sweep import load_golden
    golden = load_golden()
    tasks = _quick_tasks(["IS"])
    _, (ok,) = perf_harness.grid_pass(tasks, golden=golden)
    assert ok.problems == []
    golden["IS"]["baseline"]["cycles"] += 1
    _, (bad,) = perf_harness.grid_pass(tasks, golden=golden)
    assert len(bad.problems) == 1 and "IS/baseline.cycles" in bad.problems[0]


def test_a_raising_task_fails_its_whole_pass():
    from repro.sim.sweep import SweepTask
    good = _quick_tasks(["IS"])[0]
    raising = SweepTask("NOPE", "baseline", True, good.config)
    _, outcomes = perf_harness.grid_pass([good, raising])
    assert len(outcomes) == 2
    assert all(o.problems and "raised KeyError" in o.problems[0]
               for o in outcomes)


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks" / "perf"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "quick-grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
