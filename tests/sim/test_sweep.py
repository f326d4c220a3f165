"""The sweep executor: determinism, the content-addressed run cache, and
cache-key sensitivity (ISSUE 2's bitwise-identical guarantee)."""

import multiprocessing
import os
import signal
import time
from dataclasses import asdict, replace

import pytest

from repro.common import SystemConfig
from repro.common.config import DRAM_PRESETS, DRAMConfig, ddr5_6400
from repro.sim import run_baseline, run_dx100
from repro.sim.sweep import (
    MODES, RunCache, SweepTask, diff_golden, execute_task, golden_snapshot,
    main_sweep_tasks, model_version, run_sweep, task_grid,
    workload_fingerprint,
)
from repro.workloads import QUICK_BENCHMARKS


def _tasks(benchmarks=("IS",), modes=("baseline", "dx100")):
    return main_sweep_tasks(quick=True, benchmarks=list(benchmarks),
                            modes=modes)


# ------------------------------------------------------------- determinism

def test_parallel_sweep_matches_serial_and_direct_runs():
    """The same quick workload run serially, via the executor with jobs=1,
    and via the executor with jobs=4 yields identical metrics dicts."""
    direct = {
        "baseline": run_baseline(QUICK_BENCHMARKS["IS"](),
                                 SystemConfig.baseline_scaled(), warm=False),
        "dx100": run_dx100(QUICK_BENCHMARKS["IS"](),
                           SystemConfig.dx100_scaled(), warm=False),
    }
    serial = run_sweep(_tasks(), jobs=1, cache=False)
    parallel = run_sweep(_tasks(), jobs=4, cache=False)

    for outcome in (serial, parallel):
        runs = outcome.nested()["IS"]
        for mode, want in direct.items():
            assert asdict(runs[mode]) == asdict(want), mode


def test_task_order_is_preserved():
    tasks = _tasks(benchmarks=("IS", "CG"))
    outcome = run_sweep(tasks, jobs=4, cache=False)
    assert [(r.task.benchmark, r.task.mode) for r in outcome.runs] == \
        [(t.benchmark, t.mode) for t in tasks]


# ------------------------------------------------------------------- cache

def test_cache_hit_returns_the_exact_cached_runresult(tmp_path):
    tasks = _tasks()
    cold = run_sweep(tasks, jobs=1, cache=True, cache_dir=tmp_path)
    assert cold.cache_hits == 0 and cold.cache_misses == len(tasks)

    warm = run_sweep(tasks, jobs=1, cache=True, cache_dir=tmp_path)
    assert warm.cache_hits == len(tasks) and warm.cache_misses == 0
    for a, b in zip(cold.runs, warm.runs):
        assert not a.cached and b.cached
        assert asdict(a.result) == asdict(b.result)

    # The store itself round-trips bitwise: load(key) == the stored result.
    store = RunCache(tmp_path)
    for run in cold.runs:
        assert asdict(store.load(run.key)) == asdict(run.result)


def test_corrupt_cache_entry_falls_back_to_a_rerun(tmp_path):
    task = _tasks(modes=("baseline",))[0]
    store = RunCache(tmp_path)
    (store.directory).mkdir(parents=True, exist_ok=True)
    (store.directory / f"{task.key()}.json").write_text("not json{")
    outcome = run_sweep([task], jobs=1, cache=True, cache_dir=tmp_path)
    assert outcome.cache_misses == 1
    assert outcome.runs[0].result.cycles > 0


def test_prune_removes_entries_from_older_models(tmp_path):
    task = _tasks(modes=("baseline",))[0]
    run_sweep([task], jobs=1, cache=True, cache_dir=tmp_path)
    store = RunCache(tmp_path)
    stale = store.directory / ("0" * 64 + ".json")
    stale.write_text('{"model": "not-this-model", "result": {}}')
    assert store.prune() == 1
    assert not stale.exists()
    assert store.load(task.key()) is not None   # current entry survives


# -------------------------------------------------------------------- keys

def test_key_is_stable_and_content_sensitive():
    a, b = _tasks(modes=("baseline",))[0], _tasks(modes=("baseline",))[0]
    assert a.key() == b.key()

    other_mode = replace(a, mode="dx100",
                         config=SystemConfig.dx100_scaled())
    assert other_mode.key() != a.key()

    other_config = replace(a, config=replace(
        a.config, llc=replace(a.config.llc, size_bytes=2560 * 1024)))
    assert other_config.key() != a.key()

    other_size = replace(a, scale="main")  # MAIN vs QUICK constructor params
    assert other_size.key() != a.key()


def test_key_separates_frontends_and_scales():
    """``frontend`` and ``scale`` are explicit top-level key fields: a
    scalar-frontend replay must never alias a batched run's cache entry
    (they are bitwise-equal by contract, but an alias would make the
    differential check vacuous), and quick/main runs of the same workload
    class must never share entries."""
    a = _tasks(modes=("baseline",))[0]
    assert a.config.frontend == "batched"

    scalar = replace(a, config=replace(a.config, frontend="scalar"))
    assert scalar.key() != a.key()
    # Same frontend forced twice hashes identically (no hidden state).
    scalar2 = replace(a, config=replace(a.config, frontend="scalar"))
    assert scalar2.key() == scalar.key()

    import json
    from unittest import mock

    captured = []
    real_dumps = json.dumps

    def spy(payload, **kw):
        captured.append(payload)
        return real_dumps(payload, **kw)

    with mock.patch.object(json, "dumps", side_effect=spy):
        a.key()
    (payload,) = [p for p in captured if isinstance(p, dict)
                  and "frontend" in p]
    assert payload["frontend"] == "batched"
    assert payload["scale"] == "quick"


def test_workload_fingerprint_captures_constructor_params():
    fp_a = workload_fingerprint(QUICK_BENCHMARKS["IS"]())
    fp_b = workload_fingerprint(QUICK_BENCHMARKS["IS"]())
    assert fp_a == fp_b
    assert fp_a["params"]["scale"] == 1 << 12
    assert "rng" not in fp_a["params"] and "mem" not in fp_a["params"]


def test_model_version_is_a_stable_stamp():
    assert model_version() == model_version()
    assert len(model_version()) == 16


def test_unknown_benchmark_and_mode_are_rejected():
    with pytest.raises(KeyError):
        main_sweep_tasks(quick=True, benchmarks=["NOPE"])
    with pytest.raises(ValueError):
        SweepTask(benchmark="IS", mode="turbo", scale="quick",
                  config=SystemConfig.baseline_scaled())
    # An unknown scale fails where an unknown benchmark does: in factory().
    odd = SweepTask("IS", "baseline", "huge", SystemConfig.baseline_scaled())
    with pytest.raises(KeyError, match="unknown scale"):
        odd.factory()


def test_negative_sample_every_is_rejected(capsys):
    """A negative period used to run under its own cache key with no
    timeline attached: no samples and no error."""
    from repro.__main__ import main

    with pytest.raises(ValueError, match="sample_every"):
        SweepTask("IS", "baseline", "quick", SystemConfig.baseline_scaled(),
                  sample_every=-1)
    assert main(["run", "IS", "--quick", "--sample-every", "-1"]) == 2
    assert "sample_every must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------- the task grid

def _dry_run(argv, capsys) -> list[str]:
    from repro.__main__ import main

    assert main(["run", *argv, "--dry-run"]) == 0
    return capsys.readouterr().out.splitlines()


def _listing(tasks) -> list[str]:
    return [f"{len(tasks)} task(s):"] + [
        f"  {t.label():<28s} {t.key()[:12]}" for t in tasks]


_ALL = ["--configs", "baseline", "dmp", "dx100"]


@pytest.mark.parametrize("argv, grid", [
    pytest.param(
        ["IS", "CG", *_ALL, "--dram", "ddr4", "ddr5",
         "--tile", "4096", "8192", "16384", "32768", "65536"],
        dict(benchmarks=["IS", "CG"], drams=("ddr4", "ddr5"),
             tiles=(4096, 8192, 16384, 32768, 65536)),
        id="benchmarks=IS,CG dram=ddr4,ddr5 tile=4k:64k"),
    pytest.param(["--all", "--quick", *_ALL], dict(scale="quick"),
                 id="scale=quick"),
    pytest.param(["G*", *_ALL],
                 dict(benchmarks=["GZZ", "GZZI", "GZP", "GZPI"]),
                 id="benchmarks=G*"),
    pytest.param(["IS", "CG", *_ALL], dict(benchmarks=["IS", "CG"]),
                 id="benchmarks=IS,CG"),
    pytest.param(
        ["IS", "CG", "--quick", *_ALL, "--dram", "ddr4", "cxl"],
        dict(benchmarks=["IS", "CG"], scale="quick", drams=("ddr4", "cxl")),
        id="benchmarks=IS,CG dram=ddr4,cxl scale=quick"),
    pytest.param(
        ["IS", "--quick", "--configs", "baseline", "dx100", "--dram", "cxl"],
        dict(benchmarks=["IS"], modes=("baseline", "dx100"), scale="quick",
             drams=("cxl",)),
        id="benchmarks=IS modes=baseline,dx100 dram=cxl scale=quick"),
])
def test_former_campaign_specs_are_run_argv(argv, grid, capsys):
    """Each campaign spec EXPERIMENTS.md, the Makefile and CI once used
    (the test id) has a ``run`` equivalent: the same tasks under the same
    cache keys as the ``task_grid`` call the spec expanded to."""
    assert _dry_run(argv, capsys) == _listing(task_grid(**grid))


def test_tile_axis_only_replicates_dx100_tasks():
    """baseline/dmp have no DX100 config, so the tile axis collapses for
    them instead of producing duplicate cache keys."""
    tasks = task_grid(["IS"], scale="quick", tiles=(4096, 8192, 16384))
    by_mode: dict[str, int] = {}
    for t in tasks:
        by_mode[t.mode] = by_mode.get(t.mode, 0) + 1
    assert by_mode == {"baseline": 1, "dmp": 1, "dx100": 3}
    assert {t.config.dx100.tile_elems for t in tasks
            if t.mode == "dx100"} == {4096, 8192, 16384}


def test_dram_axis_selects_presets():
    tasks = task_grid(["IS"], ("baseline",), "quick", drams=("ddr4", "ddr5"))
    assert {t.config.dram.timing.tCK for t in tasks} == \
        {DRAMConfig().timing.tCK, ddr5_6400().timing.tCK}


@pytest.mark.parametrize("mode", MODES)
def test_explicit_ddr4_is_the_default_dram_at_eight_cores(mode):
    """``--dram ddr4`` names the default, so above 4 cores it keeps the
    channel doubling and the task (cache key included) is unchanged."""
    default, = task_grid(["IS"], (mode,), cores=(8,))
    ddr4, = task_grid(["IS"], (mode,), cores=(8,), drams=("ddr4",))
    assert ddr4 == default and ddr4.key() == default.key()
    assert default.config.dram.channels == 4


def test_dram_presets_double_their_channels_above_four_cores():
    for dram in DRAM_PRESETS:
        small, = task_grid(["IS"], ("dx100",), cores=(4,), drams=(dram,))
        big, = task_grid(["IS"], ("dx100",), cores=(8,), drams=(dram,))
        assert big.config.dram == replace(
            small.config.dram, channels=2 * small.config.dram.channels)


def test_dram_cxl_expands_with_the_remote_link_enabled():
    tasks = task_grid(["IS"], ("baseline", "dx100"), "quick",
                      drams=("cxl",))
    assert len(tasks) == 2
    assert all(t.config.dram.remote.enabled for t in tasks)


def test_benchmark_globs_match_the_registry_in_order(capsys):
    tasks = task_grid(["G*"], ("baseline",), "quick")
    assert [t.benchmark for t in tasks] == ["GZZ", "GZZI", "GZP", "GZPI"]
    with pytest.raises(KeyError, match=r"NOPE\*.*IS, CG, BFS"):
        task_grid(["NOPE*"])
    from repro.__main__ import main
    assert main(["run", "NOPE*", "--quick"]) == 2
    assert "unknown benchmarks: NOPE*" in capsys.readouterr().err


def test_overlapping_names_and_globs_schedule_each_task_once():
    tasks = task_grid(["GZZ", "G*", "GZ?"], ("baseline",), "quick")
    assert [t.benchmark for t in tasks] == ["GZZ", "GZZI", "GZP", "GZPI"]


def test_full_scale_is_a_scale_value(capsys):
    """``--scale full`` selects the paper-sized registry: IS, CG, XRAGE."""
    tasks = task_grid(None, ("dx100",), "full")
    assert [(t.benchmark, t.scale) for t in tasks] == \
        [("IS", "full"), ("CG", "full"), ("XRAGE", "full")]
    assert _dry_run(["--all", "--scale", "full"], capsys) == _listing(tasks)
    with pytest.raises(KeyError, match="XRAGE"):
        task_grid(["BFS"], scale="full")


def test_campaign_is_not_a_subcommand(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_:
        main(["campaign", "scale=quick"])
    assert exit_.value.code == 2


# ------------------------------------------------------------ golden diffs

def test_diff_golden_flags_any_field_change():
    outcome = run_sweep(_tasks(modes=("baseline",)), jobs=1, cache=False)
    snap = golden_snapshot(outcome)
    assert diff_golden(snap, snap) == []

    drifted = {n: {m: dict(f) for m, f in runs.items()}
               for n, runs in snap.items()}
    drifted["IS"]["baseline"]["cycles"] += 1
    problems = diff_golden(snap, drifted)
    assert problems and "IS/baseline.cycles" in problems[0]

    missing = {**snap, "GHOST": {}}
    assert any("GHOST" in p for p in diff_golden(snap, missing))


# --------------------------------------------------------- cache hygiene

def test_store_tmp_name_is_per_process_and_cleaned_up(tmp_path):
    """Concurrent writers must not share a temp file: the staging name
    embeds the pid, and nothing *.tmp survives a successful store."""
    import os

    task = _tasks(modes=("baseline",))[0]
    outcome = run_sweep([task], jobs=1, cache=False)
    store = RunCache(tmp_path)

    seen = []
    original = RunCache._path

    def spy(self, key):
        seen.extend(p.name for p in self.directory.glob("*.tmp"))
        return original(self, key)

    RunCache._path = spy
    try:
        store.store(task.key(), task, outcome.runs[0].result)
    finally:
        RunCache._path = original
    assert any(f".{os.getpid()}.tmp" in name for name in seen)
    assert list(tmp_path.glob("*.tmp")) == []
    assert asdict(store.load(task.key())) == asdict(outcome.runs[0].result)


def test_prune_deletes_orphaned_tmp_files(tmp_path):
    """A writer killed mid-store leaves <key>.<pid>.tmp behind; prune
    sweeps those alongside stale-model entries."""
    task = _tasks(modes=("baseline",))[0]
    run_sweep([task], jobs=1, cache=True, cache_dir=tmp_path)
    store = RunCache(tmp_path)
    orphan = store.directory / f"{task.key()}.12345.tmp"
    orphan.write_text('{"half": "written')
    assert store.prune() == 1
    assert not orphan.exists()
    assert store.load(task.key()) is not None


def test_default_jobs_prefers_scheduling_affinity(monkeypatch):
    """Inside a container the affinity mask, not os.cpu_count(), bounds
    usable parallelism; REPRO_JOBS still overrides everything."""
    import os

    from repro.sim.sweep import default_jobs

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_jobs() == 3

    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: (_ for _ in ()).throw(OSError()),
                        raising=False)
    assert default_jobs() == 64

    monkeypatch.setenv("REPRO_JOBS", "7")
    assert default_jobs() == 7


def test_prune_deletes_corrupt_entries_left_by_killed_workers(tmp_path):
    """A SIGKILLed worker can leave a cache file holding anything —
    truncated JSON, or JSON that parses but is not a record.  prune must
    sweep them all without crashing, and keep the valid entry."""
    task = _tasks(modes=("baseline",))[0]
    run_sweep([task], jobs=1, cache=True, cache_dir=tmp_path)
    store = RunCache(tmp_path)

    (tmp_path / "deadbeef1.json").write_text('{"model": "x", "trunc')
    (tmp_path / "deadbeef2.json").write_text("null")
    (tmp_path / "deadbeef3.json").write_text("[1, 2, 3]")
    assert store.prune() == 3
    assert sorted(p.name for p in tmp_path.glob("*.json")) == \
        [f"{task.key()}.json"]
    assert store.load(task.key()) is not None


def test_run_sweep_rejects_nonpositive_jobs():
    task = _tasks(modes=("baseline",))[0]
    with pytest.raises(ValueError, match="at least one job"):
        run_sweep([task], jobs=0, cache=False)
    with pytest.raises(ValueError, match="at least one job"):
        run_sweep([task], jobs=-2, cache=False)


def test_default_jobs_rejects_bad_repro_jobs(monkeypatch):
    from repro.sim.sweep import default_jobs

    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "-3")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


def test_run_cli_rejects_jobs_zero_with_a_clear_message(capsys):
    from repro.__main__ import main

    assert main(["run", "--jobs", "0", "--quick", "IS"]) == 2
    err = capsys.readouterr().err
    assert "--jobs must be >= 1" in err


def test_run_cli_reports_bad_repro_jobs(monkeypatch, capsys, tmp_path):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_JOBS", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "--quick", "IS", "--configs", "baseline"]) == 2
    assert "REPRO_JOBS must be a positive integer" in capsys.readouterr().err


# -------------------------------------------------------------- full scale

def test_run_full_scale_is_an_ordinary_cached_task(monkeypatch, capsys,
                                                   tmp_path):
    """``run IS --scale full`` builds the 4-core DX100 task at scale
    ``full``, and executing it gives exactly what a direct ``run_dx100`` of
    the full-scale IS gives (the CI full-scale pins and the perf harness's
    full pass run that).  The full IS is swapped for the quick one so the
    test takes seconds."""
    import json

    from repro.__main__ import main
    from repro.sim.sweep import CONFIG_BUILDERS
    from repro.workloads import FULL_BENCHMARKS

    monkeypatch.setitem(FULL_BENCHMARKS, "IS", QUICK_BENCHMARKS["IS"])
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    want = SweepTask("IS", "dx100", "full", CONFIG_BUILDERS["dx100"](4))
    record = tmp_path / "full.json"
    assert main(["run", "IS", "--scale", "full", "--jobs", "1",
                 "--json", str(record)]) == 0
    (run,) = json.loads(record.read_text())["runs"]
    assert (run["benchmark"], run["mode"], run["scale"]) == \
        ("IS", "dx100", "full")
    assert run["key"] == want.key()

    direct = run_dx100(FULL_BENCHMARKS["IS"](), CONFIG_BUILDERS["dx100"](4),
                       warm=False)
    result, _ = execute_task(want)
    assert result == direct
    assert run["result"] == asdict(direct)


# ------------------------------------------------------- settling order

def test_progress_fires_as_each_task_settles(monkeypatch):
    """With one job, the first task's callback runs before the last task
    starts (not after the whole sweep)."""
    from repro.sim import sweep

    events = []
    real = sweep.execute_task

    def execute(task):
        events.append(("start", task.mode))
        return real(task)

    monkeypatch.setattr(sweep, "execute_task", execute)
    run_sweep(_tasks(), jobs=1, cache=False,
              progress=lambda run: events.append(("settled", run.task.mode)))
    assert events == [("start", "baseline"), ("settled", "baseline"),
                      ("start", "dx100"), ("settled", "dx100")]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="forked workers inherit the patched task body")
def test_dead_pool_worker_raises_instead_of_hanging(tmp_path, monkeypatch):
    """A worker that dies mid-task (here it SIGKILLs itself, as the OOM
    killer would) must fail the sweep with the task named, not hang it;
    the task that finished first is already in the cache."""
    from repro.sim import sweep

    survivor, victim = _tasks()
    survivor_file = tmp_path / f"{survivor.key()}.json"
    real = sweep.execute_task

    def execute(task):
        if task.mode == victim.mode:
            deadline = time.monotonic() + 30.0
            while not survivor_file.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(task)

    monkeypatch.setattr(sweep, "execute_task", execute)

    def sweep_in_child(conn):
        os.setpgid(0, 0)   # one group: a hung pool is killed with it
        try:
            run_sweep([survivor, victim], jobs=2, cache_dir=tmp_path)
            conn.send("finished")
        except Exception as exc:   # noqa: BLE001 — reported to the test
            conn.send(f"{type(exc).__name__}: {exc}")

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=sweep_in_child, args=(send,))
    child.start()
    try:
        assert recv.poll(60.0), "run_sweep hung after a worker died"
        outcome = recv.recv()
    finally:
        if child.is_alive():
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                child.kill()
        child.join(10.0)
    assert not child.is_alive()
    assert outcome.startswith("RuntimeError"), outcome
    assert "IS/dx100 [quick]" in outcome
    assert RunCache(tmp_path).load(survivor.key()) is not None
