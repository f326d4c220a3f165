"""The campaign fabric: lease protocol, retry/backoff, resume-without-
re-simulation, generate-stage reuse, and bitwise identity with the direct
runner path."""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.dx100.hostmem import HostMemory
from repro.sim.fabric import (
    GenerateCache, RetryPolicy, build_tasks, campaign_status, claim_task,
    complete_task, create_campaign, fail_task, load_campaign,
    merge_bench_record, reclaim_expired, run_campaign,
    worker_loop,
)
from repro.sim.sweep import (
    RunCache, execute_task, main_sweep_tasks, result_to_dict, run_sweep,
)


def _campaign(tmp_path, spec="benchmarks=IS modes=baseline,dx100 "
              "scale=quick", **kwargs):
    tasks = build_tasks(spec)
    kwargs.setdefault("cache", False)
    path = create_campaign(tasks, "t", root=tmp_path / "camps",
                           spec_text=spec, **kwargs)
    return path, tasks


def _done(path):
    return {p.stem: json.loads(p.read_text())
            for p in (path / "done").glob("*.json")}


# ----------------------------------------------------------- manifest basics

def test_build_tasks_assigns_stable_readable_ids():
    tasks = build_tasks("benchmarks=IS tile=4k:8k scale=quick tenants=2")
    tids = [t.tid for t in tasks]
    assert tids == ["IS.quick.baseline", "IS.quick.dmp", "IS.quick.dx100",
                    "IS.quick.dx100.2", "serve.t2.ddr4"]
    assert len(set(tids)) == len(tids)


def test_campaign_round_trips_through_the_manifest(tmp_path):
    path, tasks = _campaign(tmp_path)
    campaign = load_campaign(path)
    assert set(campaign.tasks) == {t.tid for t in tasks}
    for task in tasks:
        loaded = campaign.tasks[task.tid]
        assert loaded.sweep == task.sweep
        assert loaded.group == task.group
    assert campaign_status(path).pending == len(tasks)


def test_create_refuses_to_clobber_an_existing_campaign(tmp_path):
    _campaign(tmp_path)
    with pytest.raises(FileExistsError):
        _campaign(tmp_path)


def test_cache_hits_settle_at_creation_and_never_schedule(tmp_path):
    """A task already in the run cache lands in done/ with cached=true;
    only the rest get queue tokens."""
    cache_dir = tmp_path / "cache"
    tasks = main_sweep_tasks(quick=True, benchmarks=["IS"],
                             modes=("baseline",))
    run_sweep(tasks, jobs=1, cache=True, cache_dir=cache_dir)

    path = create_campaign(
        build_tasks("benchmarks=IS modes=baseline,dx100 scale=quick"),
        "c", root=tmp_path / "camps", cache=True, cache_dir=cache_dir)
    status = campaign_status(path)
    assert status.done == 1 and status.pending == 1
    assert _done(path)["IS.quick.baseline"]["cached"] is True


# ------------------------------------------------------------ lease protocol

def test_claim_is_exactly_once_under_contention(tmp_path):
    path, _ = _campaign(tmp_path)
    wins: list[str] = []
    barrier = threading.Barrier(8)

    def contend(i):
        barrier.wait()
        if claim_task(path, "IS.quick.baseline", f"w{i}") is not None:
            wins.append(f"w{i}")

    threads = [threading.Thread(target=contend, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1
    assert (path / "active" / f"IS.quick.baseline@{wins[0]}").exists()


def test_failure_reenqueues_with_backoff_then_goes_terminal(tmp_path):
    path, _ = _campaign(tmp_path)
    retry = RetryPolicy(max_retries=1, backoff_base_s=10.0)
    tid = "IS.quick.baseline"

    token = claim_task(path, tid, "w0")
    assert fail_task(path, tid, "w0", token, "boom", retry) is True
    requeued = json.loads((path / "queue" / tid).read_text())
    assert requeued["retries"] == 1
    assert requeued["not_before"] > time.time() + 5.0   # backoff applied

    token = json.loads((path / "queue" / tid).read_text())
    os.rename(path / "queue" / tid, path / "active" / f"{tid}@w0")
    assert fail_task(path, tid, "w0", token, "boom again", retry) is False
    terminal = json.loads((path / "failed" / f"{tid}.json").read_text())
    assert terminal["error"] == "boom again"
    assert not (path / "queue" / tid).exists()


def test_backoff_is_capped_exponential():
    retry = RetryPolicy(max_retries=8, backoff_base_s=1.0, backoff_cap_s=5.0)
    assert [retry.backoff(n) for n in range(4)] == [1.0, 2.0, 4.0, 5.0]


def test_reclaim_requeues_only_expired_leases(tmp_path):
    path, _ = _campaign(tmp_path)
    fresh, stale = "IS.quick.baseline", "IS.quick.dx100"
    claim_task(path, fresh, "w0")
    claim_task(path, stale, "w1")
    old = time.time() - 120.0
    os.utime(path / "active" / f"{stale}@w1", (old, old))

    assert reclaim_expired(path, lease_ttl_s=30.0) == [stale]
    assert (path / "queue" / stale).exists()
    assert (path / "active" / f"{fresh}@w0").exists()


def test_reclaim_drops_stale_leases_whose_task_already_completed(tmp_path):
    """Crash between done-write and lease-unlink: the record wins, the
    lease is garbage."""
    path, _ = _campaign(tmp_path)
    tid = "IS.quick.baseline"
    claim_task(path, tid, "w0")
    complete_task(path, tid, "w1", {"tid": tid, "cached": False})
    lease = path / "active" / f"{tid}@w0"
    assert lease.exists()          # w0's lease survived w1's completion
    old = time.time() - 120.0
    os.utime(lease, (old, old))
    assert reclaim_expired(path, lease_ttl_s=30.0) == []
    assert not lease.exists()
    assert not (path / "queue" / tid).exists()


# ------------------------------------------------------------- worker loop

def test_worker_loop_drains_the_campaign(tmp_path):
    path, tasks = _campaign(tmp_path)
    out = worker_loop(path, worker="w0", cache=False)
    assert out.executed == len(tasks)
    status = campaign_status(path)
    assert status.finished and status.done == len(tasks)
    stats = json.loads((path / "workers" / "w0.json").read_text())
    assert stats["generates"] == 1 and stats["reuses"] == 1


def test_injected_failure_is_retried_to_success(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FABRIC_INJECT_FAIL", "IS.quick.dx100:1")
    path, _ = _campaign(tmp_path,
                        retry=RetryPolicy(max_retries=2,
                                          backoff_base_s=0.05))
    worker_loop(path, worker="w0", cache=False)
    record = _done(path)["IS.quick.dx100"]
    assert record["retries"] == 1
    assert campaign_status(path).failed == 0


def test_exhausted_retries_go_terminal_without_wedging_the_loop(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FABRIC_INJECT_FAIL", "IS.quick.dx100:99")
    path, _ = _campaign(tmp_path,
                        retry=RetryPolicy(max_retries=1,
                                          backoff_base_s=0.05))
    out = worker_loop(path, worker="w0", cache=False)
    status = campaign_status(path)
    assert status.failed == 1 and status.done == 1 and status.finished
    assert out.failures == 2       # initial attempt + one retry


def test_resume_executes_only_non_done_tasks(tmp_path):
    """The zero-duplicated-simulation guarantee: a completed campaign
    resumed from its manifest runs nothing and rewrites nothing."""
    path, tasks = _campaign(tmp_path)
    worker_loop(path, worker="w0", cache=False)
    before = {p.name: (p.stat().st_mtime_ns, p.read_text())
              for p in (path / "done").glob("*.json")}

    out = worker_loop(path, worker="w1", cache=False)
    assert out.executed == 0
    after = {p.name: (p.stat().st_mtime_ns, p.read_text())
             for p in (path / "done").glob("*.json")}
    assert after == before


def test_interrupted_campaign_resumes_the_remainder_exactly(tmp_path):
    """Half-done manifest: the resuming worker simulates exactly the
    missing tasks and leaves the finished records byte-identical."""
    path, tasks = _campaign(
        tmp_path, spec="benchmarks=IS,CG modes=baseline,dx100 scale=quick")
    # Simulate an interruption: run only the IS tasks, then stop.
    gen = GenerateCache()
    campaign = load_campaign(path)
    from repro.sim.fabric import execute_campaign_task
    for tid in ("IS.quick.baseline", "IS.quick.dx100"):
        claim_task(path, tid, "w0")
        record = execute_campaign_task(campaign.tasks[tid], gen,
                                       cache=False)
        record.update({"worker": "w0", "retries": 0})
        complete_task(path, tid, "w0", record)
    preserved = {tid: rec for tid, rec in _done(path).items()}

    out = worker_loop(path, worker="w1", cache=False)
    assert out.executed == 2       # only the CG half
    done = _done(path)
    assert len(done) == 4
    for tid, rec in preserved.items():
        assert done[tid] == rec    # untouched, still credited to w0
    assert all(done[f"CG.quick.{m}"]["worker"] == "w1"
               for m in ("baseline", "dx100"))


# ------------------------------------------- bitwise identity + reuse perf

def test_campaign_results_are_bitwise_identical_to_direct_runs(tmp_path):
    path, tasks = _campaign(tmp_path, spec="benchmarks=IS scale=quick")
    run_campaign(path, workers=1, cache=False)
    done = _done(path)
    for task in tasks:
        direct, _ = execute_task(task.sweep)
        assert done[task.tid]["result"] == result_to_dict(direct), task.tid


def test_generate_cache_reuses_snapshots_within_a_dataset():
    tasks = main_sweep_tasks(quick=True, benchmarks=["IS", "CG"],
                             modes=("baseline", "dx100"))
    gen = GenerateCache()
    for task in tasks:
        gen.prepared(task)
    assert gen.generates == 2 and gen.reuses == 2


def test_prepared_workloads_are_independent_instances():
    """Each run must get its own workload: schedule building mutates
    state, and a shared instance would leak it across modes."""
    task = main_sweep_tasks(quick=True, benchmarks=["IS"],
                            modes=("dx100",))[0]
    gen = GenerateCache()
    first, second = gen.prepared(task), gen.prepared(task)
    assert first is not second
    assert gen.generates == 1 and gen.reuses == 1


def test_trace_memo_reuses_builds_and_sweeps_run_scribbles():
    """The second run of a dataset (DMP after baseline) must reuse the
    memoized trace build, with per-run op timing swept back to defaults."""
    task = main_sweep_tasks(quick=True, benchmarks=["IS"],
                            modes=("baseline",))[0]
    gen = GenerateCache()
    first = gen.prepared(task)
    mem = HostMemory(first.mem_bytes)
    first.generate(mem)
    built = first.baseline_traces(4)
    assert gen.trace_builds == 1 and gen.trace_reuses == 0
    built[0].ops[0].issue = 123          # what a core run would leave behind
    built[0].ops[0].complete = 456
    second = gen.prepared(task)
    second.generate(HostMemory(second.mem_bytes))
    again = second.baseline_traces(4)
    assert again[0] is built[0]          # same build, not a re-emit
    assert gen.trace_builds == 1 and gen.trace_reuses == 1
    op = again[0].ops[0]
    assert op.issue == -1 and op.complete == -1 and op.level is None


def test_no_baseline_traces_implementation_mutates_its_workload():
    """Trace memoization (GenerateCache) assumes baseline_traces is a pure
    reader of workload state; hold every implementation to that."""
    import ast
    root = Path(__file__).resolve().parents[2] / "src/repro/workloads"
    offenders = []
    for source in root.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if not (isinstance(node, ast.FunctionDef)
                    and node.name == "baseline_traces"):
                continue
            for sub in ast.walk(node):
                targets = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    targets = [sub.target]
                for t in targets:
                    if (isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        offenders.append(f"{source.name}: self.{t.attr}")
    assert not offenders, offenders


# ------------------------------------------------------------------ reports

def test_summary_md_reports_statuses_and_reuse(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FABRIC_INJECT_FAIL", "IS.quick.dx100:99")
    path, _ = _campaign(tmp_path,
                        retry=RetryPolicy(max_retries=0,
                                          backoff_base_s=0.05))
    summary = run_campaign(path, workers=1, cache=False)
    text = (path / "summary.md").read_text()
    assert "| IS.quick.baseline | sweep | done |" in text
    assert "| IS.quick.dx100 | sweep | failed |" in text
    assert "## Failures" in text and "injected failure" in text
    assert summary["failed"] == 1 and summary["done"] == 1


def test_merge_bench_record_preserves_sweep_fields(tmp_path):
    bench = tmp_path / "BENCH_mainsweep.json"
    bench.write_text(json.dumps({"bench": "mainsweep", "wall_s": 9.9}))
    merge_bench_record({"id": "x", "total": 3, "done": 3, "failed": 0,
                        "cache_hits": 1, "sim_wall_s": 1.0,
                        "generate": {"generates": 1, "reuses": 2}},
                       bench)
    record = json.loads(bench.read_text())
    assert record["wall_s"] == 9.9              # sweep's field untouched
    assert record["campaign"]["generate"]["reuses"] == 2


def test_serve_tasks_execute_through_the_fabric(tmp_path):
    tasks = build_tasks("tenants=2")
    path = create_campaign(tasks, "s", root=tmp_path / "camps", cache=False)
    worker_loop(path, worker="w0", cache=False)
    record = _done(path)["serve.t2.ddr4"]
    assert record["kind"] == "serve"
    assert record["result"]["tenants"]          # golden_snapshot shape
