"""Process-parallel experiment executor with a content-addressed run cache.

The paper's evaluation is a sweep: 12 benchmarks x {baseline, DMP, DX100}
(Figures 9-12) plus ablations — dozens of fully independent simulations.
This module fans (workload, config, mode) triples out over
``multiprocessing`` workers and memoizes every finished run in an on-disk
cache keyed by *content*:

    key = sha256(workload name + constructor params,
                 every SystemConfig field,
                 model-version stamp)

where the model-version stamp is a hash of the ``repro`` package's own
source tree, so any model change invalidates exactly the runs it could
affect and an unchanged run is loaded instead of re-simulated.  Execution
is bitwise-deterministic: each run builds a fresh workload from the
registry with its fixed seed, so a parallel sweep returns ``RunResult``
metrics identical to a serial one (``tests/sim/test_sweep.py`` asserts
this, and the golden-metrics harness pins the quick suite's numbers).

Entry points:

* :func:`run_sweep` — execute a list of :class:`SweepTask`;
* :func:`task_grid` — the one builder of task configs, behind
  ``python -m repro run`` and :func:`main_sweep_tasks` (the Figure 9-12
  benchmark x configuration grid ``benchmarks/mainsweep.py`` runs);
* :func:`golden_snapshot` — the quick suite's golden snapshot, which
  :mod:`repro.sim.golden` pins in ``tests/golden/quick_suite.json``.
"""

from __future__ import annotations

import fnmatch
import hashlib
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.common.config import SystemConfig, dram_preset
from repro.common.stats import geomean
from repro.sim.metrics import RunResult

MODES = ("baseline", "dmp", "dx100")

#: Dataset scales, smallest first: each names a workload registry.
SCALES = ("quick", "main", "full")

#: Bump when the metric *semantics* change without a source change that the
#: model-version hash would see (e.g. an external data file).  Part of every
#: cache key.
CACHE_SCHEMA = 1

DEFAULT_CACHE_DIR = Path("results") / ".runcache"

#: RunResult fields pinned by the golden-metrics harness.  ``extra`` is
#: excluded: it carries run-mode-dependent annotations (audit reports,
#: wall-clock) alongside the deterministic counters.
GOLDEN_FIELDS = (
    "cycles", "instructions", "bandwidth_utilization",
    "row_buffer_hit_rate", "request_buffer_occupancy", "llc_mpki",
    "dram_bytes", "dram_requests",
)


# --------------------------------------------------------------------- keys

def model_version() -> str:
    """Hash of the ``repro`` package's source tree (the model itself).

    Any edit to any ``.py`` file under ``src/repro`` yields a new stamp, so
    cached results can never outlive the model that produced them.
    """
    global _MODEL_VERSION
    if _MODEL_VERSION is None:
        root = Path(__file__).resolve().parents[1]
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _MODEL_VERSION = h.hexdigest()[:16]
    return _MODEL_VERSION


_MODEL_VERSION: str | None = None


def workload_fingerprint(workload) -> dict:
    """Name + constructor-visible parameters of a workload instance.

    Only scalar attributes participate: derived state (rng, generated
    arrays, memory handles) is a function of those scalars plus the model
    version, both already in the key.
    """
    params = {
        k: v for k, v in sorted(vars(workload).items())
        if k != "mem"
        and (isinstance(v, (int, float, str, bool)) or v is None)
    }
    return {
        "class": type(workload).__qualname__,
        "name": workload.name,
        "params": params,
    }


@dataclass(frozen=True)
class SweepTask:
    """One independent simulation: a (workload, config, mode) triple."""

    benchmark: str            # registry name, e.g. "IS"
    mode: str                 # baseline | dmp | dx100
    scale: str                # quick | main | full (see scale_registry)
    config: SystemConfig
    warm: bool = False
    #: Observability sampling period in cycles (0 = off).  When nonzero the
    #: run attaches a trace-less :class:`repro.obs.events.EventBus` and the
    #: timeline summary lands in ``RunResult.extra`` — so it participates
    #: in the cache key but never in the golden fields.
    sample_every: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (want {MODES})")
        if self.sample_every < 0:
            raise ValueError(f"sample_every must be >= 0 (0 = off), got "
                             f"{self.sample_every}")

    def label(self) -> str:
        """``IS/dx100 [quick]``: how progress and errors name the task."""
        return f"{self.benchmark}/{self.mode} [{self.scale}]"

    def factory(self):
        registry = scale_registry(self.scale)
        if self.benchmark not in registry:
            raise KeyError(f"unknown benchmark {self.benchmark!r}")
        return registry[self.benchmark]

    def key(self) -> str:
        """Content-addressed cache key for this task.

        ``frontend`` and ``scale`` are named explicitly even though both
        are derivable (``config.frontend`` rides in via ``asdict``, and
        the workload fingerprint reflects the registry): the simulation
        front-end and the dataset scale each select a different
        engine/workload pairing, and an aliased cache hit across either
        would silently replay the wrong run.  Keeping them as top-level key fields makes that impossible
        to regress by refactoring the config dict.
        """
        payload = {
            "schema": CACHE_SCHEMA,
            "model": model_version(),
            "workload": workload_fingerprint(self.factory()()),
            "mode": self.mode,
            "warm": self.warm,
            "sample_every": self.sample_every,
            "frontend": self.config.frontend,
            "scale": self.scale,
            "config": asdict(self.config),
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def scale_registry(scale: str) -> dict:
    """The workload registry sizing ``scale``; ``KeyError`` for an unknown
    scale, as for an unknown benchmark."""
    from repro.workloads import (
        FULL_BENCHMARKS, MAIN_BENCHMARKS, QUICK_BENCHMARKS,
    )
    registries = {"quick": QUICK_BENCHMARKS, "main": MAIN_BENCHMARKS,
                  "full": FULL_BENCHMARKS}
    if scale not in registries:
        raise KeyError(f"unknown scale {scale!r} (want {SCALES})")
    return registries[scale]


def result_to_dict(result: RunResult) -> dict:
    return asdict(result)


def result_from_dict(d: dict) -> RunResult:
    return RunResult(**d)


# -------------------------------------------------------------------- cache

class RunCache:
    """Content-addressed on-disk store of finished ``RunResult``s.

    One JSON file per key.  Keys embed the model-version stamp, so
    invalidation is automatic — stale entries are simply never addressed
    again (``prune`` deletes them).
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        env = os.environ.get("REPRO_CACHE_DIR")
        self.directory = Path(directory or env or DEFAULT_CACHE_DIR)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> RunResult | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            return result_from_dict(payload["result"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return None   # corrupt entry: fall through to a re-run

    def store(self, key: str, task: SweepTask, result: RunResult) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "model": model_version(),
            "benchmark": task.benchmark,
            "mode": task.mode,
            "scale": task.scale,
            "result": result_to_dict(result),
        }
        # Per-process temp name: concurrent sweeps (or a sweep racing a
        # test run) may store the same key at once, and a shared tmp file
        # would let one writer rename the other's half-written payload.
        tmp = self.directory / f"{key}.{os.getpid()}.tmp"
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(self._path(key))   # atomic vs concurrent sweeps
        finally:
            tmp.unlink(missing_ok=True)    # only if the rename never ran

    def prune(self) -> int:
        """Delete stale entries (older model versions, corrupt files left
        by killed writers, orphaned temp files); returns the number
        removed."""
        current = model_version()
        removed = 0
        if not self.directory.exists():
            return 0
        for path in self.directory.glob("*.json"):
            try:
                if json.loads(path.read_text()).get("model") != current:
                    path.unlink()
                    removed += 1
            except Exception:
                # Unreadable, unparseable, or parseable-but-not-a-record
                # (a killed worker can leave literally anything): all are
                # equally dead entries.
                path.unlink(missing_ok=True)
                removed += 1
        for path in self.directory.glob("*.tmp"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


# ---------------------------------------------------------------- execution

def execute_task(task: SweepTask, obs=None) -> tuple[RunResult, float]:
    """Run one task from scratch; returns (result, wall seconds).

    The workload is built fresh from the registry, which is the path every
    golden metric is pinned against.  The runner pauses the cyclic GC for
    the run (see :func:`repro.sim.runner.gc_paused`).  ``obs`` replaces the
    trace-less event bus ``sample_every`` attaches (``timeline`` passes one
    that records a trace); it never changes a simulated number.
    """
    from repro.sim.runner import run_baseline, run_dx100
    t0 = time.perf_counter()
    workload = task.factory()()
    if obs is None and task.sample_every:
        from repro.obs.events import EventBus
        obs = EventBus(trace=False, sample_every=task.sample_every)
    run = run_dx100 if task.mode == "dx100" else run_baseline
    result = run(workload, task.config, warm=task.warm, obs=obs)
    return result, time.perf_counter() - t0


def _worker(payload: tuple[int, SweepTask]) -> tuple[int, RunResult, float]:
    index, task = payload
    result, wall = execute_task(task)
    return index, result, wall


@dataclass
class TaskRun:
    """One task's outcome inside a sweep."""

    task: SweepTask
    result: RunResult
    wall: float               # seconds simulating (0.0 for a cache hit)
    cached: bool
    key: str


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in task order."""

    runs: list[TaskRun]
    jobs: int
    wall: float
    cache_hits: int = 0
    cache_misses: int = 0
    extras: dict = field(default_factory=dict)

    def nested(self) -> dict[str, dict[str, RunResult]]:
        """benchmark -> mode -> RunResult (the mainsweep shape)."""
        out: dict[str, dict[str, RunResult]] = {}
        for run in self.runs:
            out.setdefault(run.task.benchmark, {})[run.task.mode] = run.result
        return out

    def wall_by_benchmark(self) -> dict[str, dict[str, float]]:
        """benchmark -> mode -> simulation wall seconds (0.0 = cache hit).

        The per-(workload, config) wall-clock view both JSON records carry,
        so perf regressions can be pinned to the workload that slowed down
        rather than inferred from the grid total.
        """
        out: dict[str, dict[str, float]] = {}
        for run in self.runs:
            out.setdefault(run.task.benchmark, {})[run.task.mode] = round(
                run.wall, 3)
        return out

    def speedups(self, over: str = "baseline",
                 of: str = "dx100") -> dict[str, float]:
        table = self.nested()
        out = {}
        for name, runs in table.items():
            if over in runs and of in runs:
                out[name] = runs[of].speedup_over(runs[over])
        return out

    # ------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        return {
            "model_version": model_version(),
            "jobs": self.jobs,
            "wall_s": round(self.wall, 3),
            "wall_by_benchmark": self.wall_by_benchmark(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "runs": [
                {
                    "benchmark": r.task.benchmark,
                    "mode": r.task.mode,
                    "scale": r.task.scale,
                    "key": r.key,
                    "cached": r.cached,
                    "wall_s": round(r.wall, 3),
                    "result": result_to_dict(r.result),
                }
                for r in self.runs
            ],
        }

    def bench_record(self) -> dict:
        """Perf-trajectory record (``BENCH_mainsweep.json``): wall-clock,
        cycles, speedups, row-buffer hit rates, DRAM command counts."""
        speedups = self.speedups()
        dmp_speedups = self.speedups(of="dmp")
        runs = []
        for r in self.runs:
            res = r.result
            runs.append({
                "benchmark": r.task.benchmark,
                "mode": r.task.mode,
                "cached": r.cached,
                "wall_s": round(r.wall, 3),
                "cycles": res.cycles,
                "row_buffer_hit_rate": res.row_buffer_hit_rate,
                "bandwidth_utilization": res.bandwidth_utilization,
                "dram_requests": res.dram_requests,
                "dram_commands": {
                    k: res.extra[k] for k in
                    ("dram_reads", "dram_writes", "dram_row_hits",
                     "dram_row_conflicts", "dram_row_empty")
                    if k in res.extra
                },
            })
        record = {
            "bench": "mainsweep",
            "model_version": model_version(),
            "jobs": self.jobs,
            "wall_s": round(self.wall, 3),
            "wall_by_benchmark": self.wall_by_benchmark(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "speedups_dx100": {k: round(v, 4) for k, v in speedups.items()},
            "speedups_dmp": {k: round(v, 4) for k, v in dmp_speedups.items()},
            "runs": runs,
        }
        if speedups:
            record["geomean_speedup_dx100"] = round(
                geomean(list(speedups.values())), 4)
        record.update(self.extras)
        return record


def default_jobs() -> int:
    """Worker count for the sweep pool: ``REPRO_JOBS`` env override, else
    the scheduling-affinity CPU count (container-aware), else
    ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer (got {env!r})"
            ) from None
        if jobs < 1:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer (got {env!r})")
        return jobs
    # Prefer the scheduling affinity mask: in a container/cgroup the
    # process may be pinned to far fewer CPUs than the host exposes, and
    # os.cpu_count() reports the host, oversubscribing the pool.
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):   # non-Linux platforms
        return os.cpu_count() or 1


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _execute(tasks: list[SweepTask], indices: list[int], jobs: int):
    """Yield ``(index, result, wall)`` for each of ``indices`` as it
    finishes: in order and in-process for one job, else in completion
    order from a pool holding at most ``jobs`` tasks in flight.

    A pool worker that dies (SIGKILL, the OOM killer) breaks the pool;
    that is re-raised naming the tasks that were in flight, instead of
    waiting forever for a result that will never come.
    """
    if jobs == 1 or len(indices) <= 1:
        for i in indices:
            yield _worker((i, tasks[i]))
        return
    from concurrent.futures import (
        FIRST_COMPLETED, ProcessPoolExecutor, wait,
    )
    from concurrent.futures.process import BrokenProcessPool
    queue = iter(indices)
    with ProcessPoolExecutor(max_workers=min(jobs, len(indices)),
                             mp_context=_pool_context()) as pool:
        inflight = {pool.submit(_worker, (i, tasks[i])): i
                    for i in itertools.islice(queue, jobs)}
        while inflight:
            finished, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in finished:
                try:
                    yield future.result()
                except BrokenProcessPool as exc:
                    names = ", ".join(tasks[i].label()
                                      for i in sorted(inflight.values()))
                    raise RuntimeError(
                        f"a sweep worker process died while running "
                        f"{names}") from exc
                del inflight[future]
                for i in itertools.islice(queue, 1):
                    inflight[pool.submit(_worker, (i, tasks[i]))] = i


def run_sweep(tasks: list[SweepTask], jobs: int | None = None,
              cache: bool = True,
              cache_dir: str | Path | None = None,
              progress=None) -> SweepOutcome:
    """Execute ``tasks``, fanning cache misses out over worker processes.

    ``jobs=None`` uses ``REPRO_JOBS`` or the CPU count; ``jobs=1`` runs
    strictly serially in-process (no pool), which the determinism tests
    compare against the parallel path.  Each result is stored in the run
    cache as it settles, so a killed sweep keeps every finished task and
    rerunning it simulates only the rest.  ``progress`` is an optional
    ``callable(TaskRun)`` invoked as each task settles (cache hits first,
    then simulated tasks in completion order).
    """
    if jobs is not None and jobs < 1:
        raise ValueError(
            f"sweep needs at least one job, got {jobs} "
            f"(use jobs=None for the REPRO_JOBS/CPU-count default)")
    jobs = default_jobs() if jobs is None else jobs
    store = RunCache(cache_dir) if cache else None
    t0 = time.perf_counter()

    keys = [task.key() for task in tasks]
    settled: list[TaskRun | None] = [None] * len(tasks)
    misses: list[int] = []
    for i, (task, key) in enumerate(zip(tasks, keys)):
        found = store.load(key) if store is not None else None
        if found is None:
            misses.append(i)
            continue
        settled[i] = TaskRun(task, found, 0.0, True, key)
        if progress is not None:
            progress(settled[i])

    for index, result, wall in _execute(tasks, misses, jobs):
        run = TaskRun(tasks[index], result, wall, False, keys[index])
        settled[index] = run
        if store is not None:
            store.store(keys[index], tasks[index], result)
        if progress is not None:
            progress(run)

    runs = [r for r in settled if r is not None]
    return SweepOutcome(runs=runs, jobs=jobs,
                        wall=time.perf_counter() - t0,
                        cache_hits=len(tasks) - len(misses),
                        cache_misses=len(misses))


# ------------------------------------------------------------ the task grid

CONFIG_BUILDERS = {
    "baseline": SystemConfig.baseline_scaled,
    "dmp": SystemConfig.dmp_scaled,
    "dx100": SystemConfig.dx100_scaled,
}


def task_grid(benchmarks: list[str] | None = None,
              modes: tuple[str, ...] = MODES, scale: str = "main",
              cores: tuple[int, ...] = (4,),
              drams: tuple[str | None, ...] = (None,),
              tiles: tuple[int | None, ...] = (None,),
              audit: bool = False, engine: str | None = None,
              frontend: str | None = None,
              sample_every: int = 0) -> list[SweepTask]:
    """Every (benchmark, mode, dram, tile, cores) point as a deduplicated
    :class:`SweepTask`, grouped by benchmark; ``benchmarks=None`` is the
    whole registry of ``scale``, and a name may be an ``fnmatch`` glob
    (``G*``), matched in registry order.

    This is the one place a task's :class:`SystemConfig` is built: the
    mode's preset at ``cores``, then the ``dram`` technology
    (:data:`repro.common.config.DRAM_PRESETS`, through
    :meth:`SystemConfig.with_dram`, so above 4 cores its channels double
    as the default DDR4's do; ``None`` keeps the preset's DDR4), the
    JEDEC ``audit``, the DRAM ``engine`` override (``"scalar"`` runs the
    per-request oracle), the DX100 ``tile`` size, and the
    simulation ``frontend`` override (``"scalar"`` replays the per-op
    cache/core oracle).  Each override is part of the cache key, so oracle
    runs never alias batched ones.  A tile point exists only for configs
    with a DX100, so baseline/dmp tasks collapse across the tile axis.
    """
    registry = scale_registry(scale)
    names: list[str] = []
    unknown: list[str] = []
    for pattern in registry if benchmarks is None else benchmarks:
        hits = ([pattern] if pattern in registry else
                [n for n in registry if fnmatch.fnmatchcase(n, pattern)])
        names += hits
        if not hits:
            unknown.append(pattern)
    if unknown:
        raise KeyError(f"unknown benchmarks: {', '.join(unknown)} "
                       f"(at scale {scale}: {', '.join(registry)})")
    bad = [n for n in cores if n < 1]
    if bad:
        raise ValueError(f"cores must be >= 1, got {bad[0]}")
    tasks: dict[SweepTask, None] = {}
    for name, mode, dram, tile, n_cores in itertools.product(
            names, modes, drams, tiles, cores):
        config = CONFIG_BUILDERS[mode](n_cores)
        if dram is not None:
            config = config.with_dram(dram_preset(dram))
        if audit:
            config = replace(config, dram=replace(config.dram, audit=True))
        if engine is not None:
            config = replace(config, dram=replace(config.dram, engine=engine))
        if tile is not None and config.dx100 is not None:
            config = replace(config, dx100=config.dx100.with_tile(tile))
        if frontend is not None:
            config = replace(config, frontend=frontend)
        tasks[SweepTask(name, mode, scale, config,
                        sample_every=sample_every)] = None
    return list(tasks)


def main_sweep_tasks(quick: bool = False, benchmarks: list[str] | None = None,
                     modes: tuple[str, ...] = MODES, cores: int = 4,
                     audit: bool = False,
                     sample_every: int = 0,
                     engine: str | None = None,
                     frontend: str | None = None,
                     dram: str | None = None) -> list[SweepTask]:
    """The Figure 9-12 grid: every benchmark under every configuration, at
    the quick or main scale (:func:`task_grid` with one point per axis)."""
    return task_grid(benchmarks, modes, "quick" if quick else "main",
                     cores=(cores,), drams=(dram,), audit=audit,
                     engine=engine, frontend=frontend,
                     sample_every=sample_every)


# ---------------------------------------------------- golden-metrics harness

def golden_snapshot(outcome: SweepOutcome) -> dict:
    """``benchmark -> mode -> {field: value}`` for the pinned fields."""
    snapshot: dict[str, dict[str, dict]] = {}
    for name, runs in outcome.nested().items():
        snapshot[name] = {
            mode: {f: getattr(r, f) for f in GOLDEN_FIELDS}
            for mode, r in runs.items()
        }
    return snapshot


def diff_golden(snapshot: dict, golden: dict) -> list[str]:
    """Exact field-by-field diff (:func:`repro.sim.golden.diff`); an empty
    list means bitwise identical."""
    from repro.sim.golden import diff
    return diff(snapshot, golden)


def load_golden() -> dict:
    """The committed quick-suite golden metrics."""
    from repro.sim.golden import load
    return load("quick")
