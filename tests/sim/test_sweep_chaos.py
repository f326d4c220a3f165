"""Chaos: SIGKILL a sweep mid-run, then run it again.  The run cache keeps
every task that finished before the kill, so the rerun simulates only the
rest and returns the same metrics as a sweep that was never killed."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.sim import sweep
from repro.sim.sweep import golden_snapshot, main_sweep_tasks, run_sweep


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork for a killable sweep process")
def test_killed_sweep_reruns_only_the_unfinished_tasks(tmp_path,
                                                       monkeypatch):
    tasks = main_sweep_tasks(quick=True, benchmarks=["IS"])
    real = sweep.execute_task

    def slow(task):
        # Every task after the first stalls until the kill lands.
        if task is not tasks[0]:
            time.sleep(600)
        return real(task)

    monkeypatch.setattr(sweep, "execute_task", slow)
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=run_sweep, args=(tasks,),
                        kwargs={"jobs": 1, "cache_dir": tmp_path})
    child.start()
    monkeypatch.undo()   # the forked child keeps the slow body
    try:
        deadline = time.monotonic() + 60.0
        while not list(tmp_path.glob("*.json")):
            assert time.monotonic() < deadline, "no result was ever stored"
            assert child.is_alive(), "the sweep exited before the kill"
            time.sleep(0.02)
    finally:
        os.kill(child.pid, signal.SIGKILL)   # unreaped, so never reused
        child.join(10.0)
    assert not child.is_alive()
    stored = len(list(tmp_path.glob("*.json")))

    resumed = run_sweep(tasks, jobs=1, cache_dir=tmp_path)
    assert resumed.cache_hits == stored >= 1
    assert resumed.cache_misses == len(tasks) - stored >= 1
    uninterrupted = run_sweep(tasks, jobs=1, cache=False)
    assert golden_snapshot(resumed) == golden_snapshot(uninterrupted)
