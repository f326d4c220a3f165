"""Resumable work-queue campaign executor (the sweep fabric).

A *campaign* is a persistent on-disk manifest of simulation tasks that N
workers — processes today, multiple hosts sharing the results directory
tomorrow — execute cooperatively, with crash-safe exactly-once claiming,
failure retry, and zero duplicated simulation on resume.  It generalizes
the PR 2 ``multiprocessing`` pool + content-addressed run cache into the
substrate the roadmap's scale items schedule onto.

Manifest layout (``results/.campaigns/<id>/``)::

    campaign.json     immutable: spec text, retry policy, lease TTL, tasks
    queue/<tid>       pending token  {"retries": n, "not_before": wall_ts}
    active/<tid>@<w>  claimed lease; the worker heartbeats its mtime
    done/<tid>.json   result record (metrics, wall, worker, retries)
    failed/<tid>.json terminal failure after the retry budget
    workers/<w>.json  per-worker stats (generate reuse, tasks executed)
    summary.md        human-readable report written at completion

Lease protocol — every transition is a single atomic ``os.rename``:

* **claim**: ``queue/<tid>`` -> ``active/<tid>@<worker>``.  Exactly one
  of any number of racing workers wins; the losers see ``FileNotFoundError``.
* **heartbeat**: the claiming worker touches the lease's mtime every
  ``lease_ttl / 4`` seconds from a daemon thread, so a *live* worker's
  lease never expires no matter how long the simulation runs.
* **reclaim**: a lease whose mtime is older than ``lease_ttl`` belongs to
  a dead worker (SIGKILL takes the heartbeat thread with it); any worker
  may rename it back to ``queue/<tid>``.  Racing reclaimers are serialized
  by the same rename atomicity, so a task is reclaimed exactly once.
* **complete**: write ``done/<tid>.json`` (tmp + rename), then drop the
  lease.  A crash between the two leaves a stale lease next to a done
  record; reclaim checks ``done/`` first and simply drops such leases.
* **fail**: re-enqueue with ``retries+1`` and a capped-exponential
  ``not_before`` backoff, or write ``failed/<tid>.json`` once the budget
  is exhausted.  The queue token is written *before* the lease is
  dropped, so a crash mid-failure can never lose the task (the benign
  residue — token plus stale lease — resolves at the next reclaim).

Workers claim with **workload affinity**: pending tasks are ordered so
every mode (baseline/dmp/dx100) of one dataset is claimed by the same
worker back to back, and a per-worker :class:`GenerateCache` snapshots
the dataset after its first ``generate`` and restores it into each
subsequent run's memory instead of regenerating — bitwise identical by
construction (deterministic seeds + bump-pointer allocation; pinned by
``tests/sim/test_fabric.py``), and measurably faster cold
(``BENCH_mainsweep.json`` records the A/B).

Progress streams through the :mod:`repro.obs` event bus: the monitor
publishes ``campaign_progress`` marks (pending/active/done/failed,
cache hits, ETA) that the CLI renders live.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.dx100.hostmem import HostMemory
from repro.sim.metrics import RunResult
from repro.sim.specs import (
    expand_serve_params, expand_sweep_tasks, parse_spec,
    sweep_task_from_dict, sweep_task_to_dict,
)
from repro.sim.sweep import (
    RunCache, SweepTask, execute_task, model_version, result_to_dict,
    workload_fingerprint,
)

FABRIC_SCHEMA = 1

DEFAULT_CAMPAIGN_ROOT = Path("results") / ".campaigns"

QUEUE, ACTIVE, DONE, FAILED, WORKERS = (
    "queue", "active", "done", "failed", "workers")

#: Test-only injection hooks (documented for the chaos suite / CI smoke):
#: ``REPRO_FABRIC_TEST_SLEEP="tid:seconds,..."`` sleeps after claiming
#: ``tid`` (a kill window); ``REPRO_FABRIC_INJECT_FAIL="tid:n,..."``
#: raises on the first ``n`` attempts of ``tid`` (a retry exerciser).
ENV_TEST_SLEEP = "REPRO_FABRIC_TEST_SLEEP"
ENV_INJECT_FAIL = "REPRO_FABRIC_INJECT_FAIL"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for failed tasks."""

    max_retries: int = 2
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0

    def backoff(self, retries: int) -> float:
        return min(self.backoff_base_s * (2 ** retries), self.backoff_cap_s)


@dataclass(frozen=True)
class ServeParams:
    """One serving-layer campaign task (multi-tenant QoS run)."""

    tenants: int
    tiles: int = 4
    tile_lines: int = 96
    seed: int = 0
    aggressor: int = -1
    dram: str = "ddr4"
    engine: str = "batched"
    borrow: bool = True


@dataclass(frozen=True)
class CampaignTask:
    """One schedulable unit: a sweep run or a serve run.

    ``group`` is the workload-affinity key: tasks sharing a group share a
    generated dataset, so the claim order keeps them on one worker and the
    :class:`GenerateCache` restores instead of regenerating.
    """

    tid: str
    kind: str                      # "sweep" | "serve"
    group: str
    sweep: SweepTask | None = None
    serve: ServeParams | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"tid": self.tid, "kind": self.kind,
                             "group": self.group}
        if self.sweep is not None:
            d["sweep"] = sweep_task_to_dict(self.sweep)
        if self.serve is not None:
            d["serve"] = vars(self.serve).copy()
        return d

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "CampaignTask":
        return CampaignTask(
            tid=d["tid"], kind=d["kind"], group=d["group"],
            sweep=(sweep_task_from_dict(d["sweep"])
                   if d.get("sweep") else None),
            serve=ServeParams(**d["serve"]) if d.get("serve") else None,
        )


# ------------------------------------------------------------ task building

def _unique_tid(base: str, taken: set[str]) -> str:
    tid = base
    n = 2
    while tid in taken:
        tid = f"{base}.{n}"
        n += 1
    taken.add(tid)
    return tid


def build_tasks(spec_text: str) -> list[CampaignTask]:
    """Expand a spec line into campaign tasks with stable, readable ids.

    Ids are deterministic in expansion order (``IS.quick.dx100``,
    ``serve.t4.ddr5``, with ``.2``/``.3`` suffixes on axis collisions), so
    CI and the chaos tests can name tasks without hashing.
    """
    spec = parse_spec(spec_text)
    tasks: list[CampaignTask] = []
    taken: set[str] = set()
    for sweep in expand_sweep_tasks(spec):
        scale = "quick" if sweep.quick else "main"
        tid = _unique_tid(f"{sweep.benchmark}.{scale}.{sweep.mode}", taken)
        tasks.append(CampaignTask(
            tid=tid, kind="sweep", group=f"{sweep.benchmark}.{scale}",
            sweep=sweep))
    for params in expand_serve_params(spec):
        base = f"serve.t{params['tenants']}.{params['dram']}"
        if params["aggressor"] >= 0:
            base += f".a{params['aggressor']}"
        tid = _unique_tid(base, taken)
        tasks.append(CampaignTask(tid=tid, kind="serve", group="serve",
                                  serve=ServeParams(**params)))
    return tasks


# --------------------------------------------------------------- the manifest

@dataclass
class Campaign:
    """A loaded campaign manifest."""

    path: Path
    cid: str
    spec: str
    retry: RetryPolicy
    lease_ttl_s: float
    tasks: dict[str, CampaignTask]

    def dir(self, name: str) -> Path:
        return self.path / name


def campaign_dir(cid: str, root: str | Path | None = None) -> Path:
    return Path(root or DEFAULT_CAMPAIGN_ROOT) / cid


def _write_json(path: Path, payload: dict) -> None:
    """Crash-safe write: stage to a per-pid temp name, rename into place."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


def create_campaign(tasks: list[CampaignTask], cid: str,
                    root: str | Path | None = None,
                    spec_text: str = "",
                    retry: RetryPolicy | None = None,
                    lease_ttl_s: float = 30.0,
                    cache: bool = True,
                    cache_dir: str | Path | None = None) -> Path:
    """Materialize a campaign on disk, deduplicating against the run cache.

    Sweep tasks whose content-addressed key is already in the run cache
    land directly in ``done/`` (``cached: true``) and are never scheduled;
    everything else gets a queue token.  ``campaign.json`` is written
    last, so a half-created directory is never a loadable campaign.
    """
    retry = retry or RetryPolicy()
    path = campaign_dir(cid, root)
    if (path / "campaign.json").exists():
        raise FileExistsError(f"campaign {cid!r} already exists at {path}")
    for sub in (QUEUE, ACTIVE, DONE, FAILED, WORKERS):
        (path / sub).mkdir(parents=True, exist_ok=True)

    store = RunCache(cache_dir) if cache else None
    now = time.time()
    for task in tasks:
        hit: RunResult | None = None
        key = ""
        if task.kind == "sweep" and store is not None:
            assert task.sweep is not None
            key = task.sweep.key()
            hit = store.load(key)
        if hit is not None:
            _write_json(path / DONE / f"{task.tid}.json", {
                "tid": task.tid, "kind": task.kind, "worker": "",
                "retries": 0, "cached": True, "wall_s": 0.0, "key": key,
                "result": result_to_dict(hit),
            })
        else:
            _write_json(path / QUEUE / task.tid,
                        {"retries": 0, "not_before": now})

    _write_json(path / "campaign.json", {
        "schema": FABRIC_SCHEMA,
        "id": cid,
        "spec": spec_text,
        "model_version": model_version(),
        "created": now,
        "lease_ttl_s": lease_ttl_s,
        "retry": vars(retry).copy(),
        "tasks": [task.to_dict() for task in tasks],
    })
    return path


def load_campaign(path: str | Path) -> Campaign:
    """Rebuild a :class:`Campaign` from its on-disk manifest."""
    path = Path(path)
    meta = json.loads((path / "campaign.json").read_text())
    if meta.get("schema") != FABRIC_SCHEMA:
        raise ValueError(
            f"campaign schema {meta.get('schema')} != {FABRIC_SCHEMA}")
    tasks = [CampaignTask.from_dict(d) for d in meta["tasks"]]
    return Campaign(
        path=path, cid=meta["id"], spec=meta.get("spec", ""),
        retry=RetryPolicy(**meta["retry"]),
        lease_ttl_s=float(meta["lease_ttl_s"]),
        tasks={t.tid: t for t in tasks},
    )


# ------------------------------------------------------------- lease protocol

def claim_task(path: Path, tid: str, worker: str) -> dict | None:
    """Atomically claim ``tid``; returns its queue token, or ``None`` if
    another worker won (or the token vanished)."""
    lease = path / ACTIVE / f"{tid}@{worker}"
    try:
        os.rename(path / QUEUE / tid, lease)
    except FileNotFoundError:
        return None
    try:
        token = json.loads(lease.read_text())
    except (json.JSONDecodeError, OSError):
        token = {"retries": 0, "not_before": 0.0}
    os.utime(lease)   # the claim itself is the first heartbeat
    return token


def complete_task(path: Path, tid: str, worker: str, record: dict) -> None:
    """Write the done record, then release the lease (in that order, so a
    crash in between can only leave a stale lease next to a done record —
    which :func:`reclaim_expired` resolves by dropping the lease)."""
    _write_json(path / DONE / f"{tid}.json", record)
    (path / ACTIVE / f"{tid}@{worker}").unlink(missing_ok=True)


def fail_task(path: Path, tid: str, worker: str, token: dict,
              error: str, retry: RetryPolicy) -> bool:
    """Handle a task failure; returns ``True`` if it will be retried.

    The queue token (or terminal ``failed/`` record) is written *before*
    the lease is dropped so the task can never be lost mid-transition.
    """
    retries = int(token.get("retries", 0))
    will_retry = retries < retry.max_retries
    if will_retry:
        _write_json(path / QUEUE / tid, {
            "retries": retries + 1,
            "not_before": time.time() + retry.backoff(retries),
            "error": error,
        })
    else:
        _write_json(path / FAILED / f"{tid}.json", {
            "tid": tid, "worker": worker, "retries": retries,
            "error": error,
        })
    (path / ACTIVE / f"{tid}@{worker}").unlink(missing_ok=True)
    return will_retry


def reclaim_expired(path: Path, lease_ttl_s: float,
                    now: float | None = None) -> list[str]:
    """Re-enqueue tasks whose lease stopped heartbeating (dead worker).

    Returns the tids this call actually reclaimed.  Any number of workers
    may scan concurrently: the queue-ward rename is atomic, so each
    expired lease is converted back into exactly one queue token.
    """
    now = time.time() if now is None else now
    reclaimed = []
    active = path / ACTIVE
    if not active.exists():
        return []
    for lease in sorted(active.iterdir()):
        tid, _, _worker = lease.name.rpartition("@")
        if not tid:
            continue
        if (path / DONE / f"{tid}.json").exists():
            lease.unlink(missing_ok=True)   # crashed after completing
            continue
        try:
            age = now - lease.stat().st_mtime
        except FileNotFoundError:
            continue                        # settled under our feet
        if age <= lease_ttl_s:
            continue
        if (path / QUEUE / tid).exists():
            lease.unlink(missing_ok=True)   # crashed mid-fail: token exists
            continue
        try:
            os.rename(lease, path / QUEUE / tid)
            reclaimed.append(tid)
        except FileNotFoundError:
            pass                            # a racing reclaimer won
    return reclaimed


class _Heartbeat:
    """Daemon thread refreshing a lease's mtime every ``ttl / 4``."""

    def __init__(self, lease: Path, ttl_s: float) -> None:
        self.lease = lease
        self.period = max(0.05, ttl_s / 4.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            try:
                os.utime(self.lease)
            except FileNotFoundError:
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


# -------------------------------------------------------- generate-stage reuse

def dataset_key(workload: Any) -> str:
    """Identity of a workload's generated dataset: class + constructor
    params + memory footprint.  Two tasks with equal keys would generate
    bit-identical memory (fixed seeds), so one snapshot serves both."""
    fp = workload_fingerprint(workload)
    return json.dumps({"fp": fp, "mem_bytes": workload.mem_bytes},
                      sort_keys=True)


class GenerateCache:
    """Per-worker memo of the last generated dataset.

    ``prepared(task)`` returns a fresh workload instance whose ``generate``
    restores the snapshot into the run's memory instead of recomputing it.
    The snapshot pair (pristine post-generate workload + its scratch
    memory) is never mutated: every run gets a deep copy of the workload
    (schedule building and validation may advance its state) and restores
    the scratch bytes through
    :meth:`~repro.dx100.hostmem.HostMemory.clone_state_from`.

    Bitwise equivalence to a fresh ``generate`` holds by construction —
    generation is deterministic (fixed seed) and allocation is a bump
    pointer, so snapshot-restore reproduces the exact addresses, contents,
    and workload state a regeneration would; the fabric's differential
    tests pin this across the whole quick grid.

    Baseline traces are memoized the same way: trace emission is a pure
    function of the restored dataset (no ``baseline_traces`` mutates its
    workload — the fabric tests enforce that with an AST scan), so the
    baseline and DMP runs of one dataset can share a single build.  The
    core models scribble per-run timing into each op (``issue`` /
    ``complete`` / ``level``), so a reused trace is first swept back to
    its built state — an attribute reset, far cheaper than re-emitting.
    """

    def __init__(self) -> None:
        self._key: str | None = None
        self._workload: Any = None
        self._scratch: HostMemory | None = None
        self._traces: dict[int, list] = {}
        self.generates = 0
        self.reuses = 0
        self.generate_wall_s = 0.0
        self.trace_builds = 0
        self.trace_reuses = 0
        self.trace_wall_s = 0.0

    def prepared(self, task: SweepTask) -> Any:
        workload = task.factory()()
        key = dataset_key(workload)
        if key != self._key:
            scratch = HostMemory(workload.mem_bytes)
            t0 = perf_counter()
            workload.generate(scratch)
            self.generate_wall_s += perf_counter() - t0
            self.generates += 1
            self._key, self._workload, self._scratch = key, workload, scratch
            self._traces = {}
        else:
            self.reuses += 1
        pristine, scratch = self._workload, self._scratch
        saved_mem = pristine.mem
        pristine.mem = None        # keep the 64 MiB scratch out of the copy
        try:
            clone = copy.deepcopy(pristine)
        finally:
            pristine.mem = saved_mem

        def restore(mem: HostMemory) -> None:
            assert scratch is not None
            mem.clone_state_from(scratch)
            clone.mem = mem        # what generate's _remember would do

        traces_memo = self._traces

        def traces(cores: int) -> list:
            cached = traces_memo.get(cores)
            if cached is None:
                t0 = perf_counter()
                cached = type(clone).baseline_traces(clone, cores)
                self.trace_wall_s += perf_counter() - t0
                self.trace_builds += 1
                traces_memo[cores] = cached
                return cached
            self.trace_reuses += 1
            for trace in cached:
                for op in trace.ops:
                    op.issue = -1
                    op.complete = -1
                    op.level = None
            return cached

        # Shadow the bound methods on this instance only: the runner's
        # `workload.generate(system.hostmem)` call becomes the restore,
        # and `workload.baseline_traces(cores)` the memo lookup.
        setattr(clone, "generate", restore)
        setattr(clone, "baseline_traces", traces)
        return clone

    def stats(self) -> dict[str, Any]:
        return {"generates": self.generates, "reuses": self.reuses,
                "generate_wall_s": round(self.generate_wall_s, 3),
                "trace_builds": self.trace_builds,
                "trace_reuses": self.trace_reuses,
                "trace_wall_s": round(self.trace_wall_s, 3)}


# ------------------------------------------------------------ task execution

def _test_hooks(tid: str, attempt: int) -> None:
    """Apply the documented chaos/CI injection hooks for ``tid``."""
    for part in os.environ.get(ENV_TEST_SLEEP, "").split(","):
        name, _, seconds = part.partition(":")
        if name == tid and seconds:
            time.sleep(float(seconds))
    for part in os.environ.get(ENV_INJECT_FAIL, "").split(","):
        name, _, count = part.partition(":")
        if name == tid and count and attempt < int(count):
            raise RuntimeError(
                f"injected failure for {tid} (attempt {attempt})")


def execute_campaign_task(task: CampaignTask, gen: GenerateCache,
                          cache: bool = True,
                          cache_dir: str | Path | None = None,
                          ) -> dict[str, Any]:
    """Run one campaign task to a done-record dict (no state transitions)."""
    if task.kind == "sweep":
        assert task.sweep is not None
        store = RunCache(cache_dir) if cache else None
        # The content-addressed key costs a workload construction + a
        # config hash; without a cache there is nothing to address.
        key = task.sweep.key() if store is not None else ""
        hit = store.load(key) if store is not None else None
        if hit is not None:
            return {"tid": task.tid, "kind": "sweep", "cached": True,
                    "wall_s": 0.0, "key": key, "result": result_to_dict(hit)}
        workload = gen.prepared(task.sweep)
        result, wall = execute_task(task.sweep, workload=workload)
        if store is not None:
            store.store(key, task.sweep, result)
        return {"tid": task.tid, "kind": "sweep", "cached": False,
                "wall_s": round(wall, 3), "key": key,
                "result": result_to_dict(result)}
    if task.kind == "serve":
        assert task.serve is not None
        from dataclasses import replace as _replace

        from repro.common.config import dram_preset
        from repro.serve import make_tenants, serve_run
        p = task.serve
        config = dram_preset(p.dram)
        config = _replace(config, engine=p.engine)
        t0 = perf_counter()
        specs = make_tenants(p.tenants, tiles=p.tiles,
                             tile_lines=p.tile_lines, seed=p.seed,
                             aggressor=p.aggressor)
        report = serve_run(specs, config=config, borrow=p.borrow)
        return {"tid": task.tid, "kind": "serve", "cached": False,
                "wall_s": round(perf_counter() - t0, 3), "key": "",
                "result": report.golden_snapshot()}
    raise ValueError(f"unknown task kind {task.kind!r}")


# ---------------------------------------------------------------- the worker

def _pending_tids(path: Path) -> list[str]:
    """Names of queued tokens — a racy snapshot; the atomic claim is what
    decides ownership.  Deliberately does NOT read the token bodies: the
    common round has no backing-off tasks, and the claimer checks
    ``not_before`` *after* winning (pushing the token back if it is still
    cooling off), so the steady state is one listdir per round instead of
    O(queue) JSON parses."""
    try:
        return os.listdir(path / QUEUE)
    except FileNotFoundError:
        return []


def _claim_order(campaign: Campaign, tids: list[str],
                 prefer_group: str | None, path: Path) -> list[str]:
    """Workload-affinity claim order: own group first, then groups nobody
    is working on (each worker drifts to its own dataset), then the rest —
    each bucket sorted so modes of one dataset stay adjacent."""
    active_groups = set()
    active = path / ACTIVE
    if active.exists():
        for lease in active.iterdir():
            tid = lease.name.rpartition("@")[0]
            task = campaign.tasks.get(tid)
            if task is not None:
                active_groups.add(task.group)

    def rank(tid: str) -> tuple:
        group = campaign.tasks[tid].group if tid in campaign.tasks else tid
        mine = 0 if (prefer_group is not None and group == prefer_group) \
            else 1
        contended = 1 if group in active_groups else 0
        return (mine, contended, group, tid)

    return sorted(tids, key=rank)


@dataclass
class WorkerOutcome:
    """What one worker loop did (also persisted to ``workers/<id>.json``)."""

    worker: str
    executed: int = 0
    cache_hits: int = 0
    failures: int = 0
    reclaims: int = 0
    generate: dict = field(default_factory=dict)


def worker_loop(path: str | Path, worker: str | None = None,
                cache: bool = True,
                cache_dir: str | Path | None = None,
                poll_s: float = 0.2,
                progress: Callable[[dict], None] | None = None,
                ) -> WorkerOutcome:
    """Claim and execute tasks until the campaign has none left.

    Runs until ``queue/`` and ``active/`` are both empty — i.e. every task
    is done or terminally failed — so a worker also babysits its peers:
    if one dies, this loop reclaims the expired lease and finishes the
    task.  Safe to run any number of these concurrently (processes or
    hosts sharing the directory).
    """
    import gc

    path = Path(path)
    campaign = load_campaign(path)
    worker = worker or f"{socket.gethostname()}-{os.getpid()}"
    out = WorkerOutcome(worker=worker)
    gen = GenerateCache()
    last_group: str | None = None

    # Keep the cyclic GC off for the worker's whole lifetime, not just per
    # task (execute_task sees it already disabled and leaves it alone):
    # the simulators' object graphs are acyclic, so refcounting reclaims
    # each run's garbage, and the per-task re-enable would otherwise pay
    # full-heap generation scans between every pair of runs.  One explicit
    # collect at each dataset switch bounds whatever does accumulate —
    # and freezing the pre-loop heap keeps those collects proportional to
    # per-dataset allocation instead of rescanning the interpreter + the
    # imported model every time.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    gc.collect()
    gc.freeze()
    try:
        _worker_drain(path, campaign, worker, out, gen, cache, cache_dir,
                      poll_s, progress, gc)
    finally:
        gc.unfreeze()
        if gc_was_enabled:
            gc.enable()
        gc.collect()

    out.generate = gen.stats()
    _write_json(path / WORKERS / f"{worker}.json", {
        "worker": worker, "executed": out.executed,
        "cache_hits": out.cache_hits, "failures": out.failures,
        "reclaims": out.reclaims, **out.generate,
    })
    return out


def _worker_drain(path: Path, campaign: Campaign, worker: str,
                  out: "WorkerOutcome", gen: GenerateCache, cache: bool,
                  cache_dir: str | Path | None, poll_s: float,
                  progress: Callable[[dict], None] | None, gc) -> None:
    last_group: str | None = None
    while True:
        out.reclaims += len(reclaim_expired(path, campaign.lease_ttl_s))
        now = time.time()
        claimable = _pending_tids(path)
        token: dict | None = None
        tid = ""
        backing_off = False
        for candidate in _claim_order(campaign, claimable, last_group, path):
            token = claim_task(path, candidate, worker)
            if token is None:
                continue
            if float(token.get("not_before", 0.0)) > now:
                # Still cooling off after a failure: push the token back
                # (rename preserves its retry count) and keep looking.
                os.rename(path / ACTIVE / f"{candidate}@{worker}",
                          path / QUEUE / candidate)
                backing_off = True
                token = None
                continue
            tid = candidate
            break
        if token is None:
            active_dir = path / ACTIVE
            busy = any(active_dir.iterdir()) if active_dir.exists() else False
            if not claimable and not backing_off and not busy:
                break               # nothing pending anywhere: campaign over
            time.sleep(poll_s)
            continue

        task = campaign.tasks.get(tid)
        if task is None:
            # A token that matches no manifest task (manual tampering):
            # fail it terminally rather than spinning on it forever.
            fail_task(path, tid, worker, token, "task not in manifest",
                      RetryPolicy(max_retries=0))
            continue
        if last_group is not None and task.group != last_group:
            gc.collect()           # dataset switch: drop the old snapshot's
        last_group = task.group    # cycles before the 64 MiB refill
        lease = path / ACTIVE / f"{tid}@{worker}"
        attempt = int(token.get("retries", 0))
        try:
            with _Heartbeat(lease, campaign.lease_ttl_s):
                _test_hooks(tid, attempt)
                record = execute_campaign_task(task, gen, cache=cache,
                                               cache_dir=cache_dir)
            record.update({"worker": worker, "retries": attempt})
            complete_task(path, tid, worker, record)
            out.executed += 1
            out.cache_hits += 1 if record.get("cached") else 0
            if progress is not None:
                progress(record)
        except Exception as exc:   # noqa: BLE001 — any failure retries
            out.failures += 1
            fail_task(path, tid, worker, token,
                      f"{type(exc).__name__}: {exc}", campaign.retry)


def _worker_entry(path: str, worker: str, cache: bool,
                  cache_dir: str | None) -> None:
    """Process target for :func:`run_campaign`'s worker fleet."""
    worker_loop(path, worker=worker, cache=cache, cache_dir=cache_dir)


# ----------------------------------------------------------------- monitoring

@dataclass
class CampaignStatus:
    """One snapshot of a campaign's task states."""

    total: int
    pending: int
    active: int
    done: int
    failed: int

    @property
    def settled(self) -> int:
        return self.done + self.failed

    @property
    def finished(self) -> bool:
        return self.pending == 0 and self.active == 0


def campaign_status(path: str | Path) -> CampaignStatus:
    """Count a campaign's tasks by state from the manifest directories."""
    path = Path(path)

    def count(sub: str, suffix: str = "") -> int:
        d = path / sub
        if not d.exists():
            return 0
        return sum(1 for p in d.iterdir() if p.name.endswith(suffix))

    total = len(json.loads(
        (path / "campaign.json").read_text())["tasks"])
    return CampaignStatus(total=total, pending=count(QUEUE),
                          active=count(ACTIVE),
                          done=count(DONE, ".json"),
                          failed=count(FAILED, ".json"))


def run_campaign(path: str | Path, workers: int = 1,
                 cache: bool = True,
                 cache_dir: str | Path | None = None,
                 bus: Any = None,
                 poll_s: float = 0.5) -> dict[str, Any]:
    """Execute a campaign with ``workers`` processes and return the final
    summary (also written to ``summary.md``).

    ``workers=1`` runs the loop in-process (strictly serial — the
    determinism-test twin of ``run_sweep(jobs=1)``); more workers fork a
    fleet and the parent monitors the manifest, publishing
    ``campaign_progress`` marks on ``bus`` (a
    :class:`repro.obs.events.EventBus`) as tasks settle.
    """
    if workers < 1:
        raise ValueError(f"campaign needs at least one worker, got {workers}")
    path = Path(path)
    t0 = perf_counter()
    started = time.time()
    baseline_done = campaign_status(path).done   # cache-dedupe prefills

    def publish(status: CampaignStatus) -> None:
        if bus is None:
            return
        fresh = status.done - baseline_done
        elapsed = time.time() - started
        rate = fresh / elapsed if elapsed > 0 and fresh else 0.0
        remaining = status.pending + status.active
        eta = remaining / rate if rate > 0 else None
        bus.campaign_progress(status.pending, status.active, status.done,
                              status.failed, cache_hits=baseline_done,
                              eta_s=eta)

    if workers == 1:
        worker_loop(path, cache=cache, cache_dir=cache_dir,
                    progress=(lambda record: publish(campaign_status(path)))
                    if bus is not None else None)
    else:
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        procs = [
            ctx.Process(target=_worker_entry,
                        args=(str(path), f"w{i}", cache,
                              str(cache_dir) if cache_dir else None),
                        daemon=False)
            for i in range(workers)
        ]
        for proc in procs:
            proc.start()
        try:
            while any(proc.is_alive() for proc in procs):
                publish(campaign_status(path))
                time.sleep(poll_s)
        finally:
            for proc in procs:
                proc.join(timeout=5.0)
    final = campaign_status(path)
    publish(final)
    return finalize_campaign(path, wall_s=perf_counter() - t0,
                             workers=workers)


# ------------------------------------------------------------------ reporting

def _load_records(path: Path, sub: str) -> list[dict]:
    out = []
    d = path / sub
    if not d.exists():
        return out
    for p in sorted(d.glob("*.json")):
        try:
            out.append(json.loads(p.read_text()))
        except json.JSONDecodeError:
            continue
    return out


def finalize_campaign(path: str | Path, wall_s: float | None = None,
                      workers: int | None = None) -> dict[str, Any]:
    """Collect every record into a summary dict and write ``summary.md``."""
    path = Path(path)
    campaign = load_campaign(path)
    done = _load_records(path, DONE)
    failed = _load_records(path, FAILED)
    worker_stats = _load_records(path, WORKERS)
    status = campaign_status(path)

    cache_hits = sum(1 for r in done if r.get("cached"))
    sim_wall = sum(float(r.get("wall_s", 0.0)) for r in done)
    retried = sum(1 for r in done if int(r.get("retries", 0)) > 0)
    wall_by_group: dict[str, float] = {}
    for r in done:
        task = campaign.tasks.get(r["tid"])
        group = task.group if task is not None else "?"
        wall_by_group[group] = (wall_by_group.get(group, 0.0)
                                + float(r.get("wall_s", 0.0)))
    generates = sum(int(w.get("generates", 0)) for w in worker_stats)
    reuses = sum(int(w.get("reuses", 0)) for w in worker_stats)
    generate_wall = sum(float(w.get("generate_wall_s", 0.0))
                        for w in worker_stats)
    trace_builds = sum(int(w.get("trace_builds", 0)) for w in worker_stats)
    trace_reuses = sum(int(w.get("trace_reuses", 0)) for w in worker_stats)
    trace_wall = sum(float(w.get("trace_wall_s", 0.0))
                     for w in worker_stats)

    summary: dict[str, Any] = {
        "id": campaign.cid,
        "spec": campaign.spec,
        "model_version": model_version(),
        "total": status.total,
        "done": status.done,
        "failed": status.failed,
        "pending": status.pending,
        "cache_hits": cache_hits,
        "cache_hit_ratio": round(cache_hits / status.total, 4)
        if status.total else 0.0,
        "retried": retried,
        "sim_wall_s": round(sim_wall, 3),
        "wall_by_group": {g: round(w, 3)
                          for g, w in sorted(wall_by_group.items())},
        "generate": {"generates": generates, "reuses": reuses,
                     "generate_wall_s": round(generate_wall, 3),
                     "trace_builds": trace_builds,
                     "trace_reuses": trace_reuses,
                     "trace_wall_s": round(trace_wall, 3)},
    }
    if wall_s is not None:
        summary["wall_s"] = round(wall_s, 3)
    if workers is not None:
        summary["workers"] = workers

    (path / "summary.md").write_text(render_summary(campaign, summary,
                                                    done, failed))
    return summary


def render_summary(campaign: Campaign, summary: dict,
                   done: list[dict], failed: list[dict]) -> str:
    """The campaign's ``summary.md``: header stats, per-workload wall,
    per-task status table."""
    lines = [
        f"# Campaign `{campaign.cid}`",
        "",
        f"- spec: `{campaign.spec or '(explicit task list)'}`",
        f"- model: `{summary['model_version']}`",
        f"- tasks: {summary['total']} total — {summary['done']} done, "
        f"{summary['failed']} failed, {summary['pending']} pending",
        f"- run-cache hits: {summary['cache_hits']} "
        f"({100.0 * summary['cache_hit_ratio']:.0f}%)",
        f"- retried tasks that eventually succeeded: {summary['retried']}",
        f"- simulation wall: {summary['sim_wall_s']}s"
        + (f" (campaign wall {summary['wall_s']}s, "
           f"{summary.get('workers', 1)} worker(s))"
           if "wall_s" in summary else ""),
        f"- generate stage: {summary['generate']['generates']} generated, "
        f"{summary['generate']['reuses']} reused from snapshot "
        f"({summary['generate']['generate_wall_s']}s generating)",
        f"- trace stage: {summary['generate'].get('trace_builds', 0)} "
        f"built, {summary['generate'].get('trace_reuses', 0)} reused from "
        f"memo ({summary['generate'].get('trace_wall_s', 0.0)}s building)",
        "",
        "## Wall per workload",
        "",
        "| group | simulation wall (s) |",
        "|---|---:|",
    ]
    for group, wall in summary["wall_by_group"].items():
        lines.append(f"| {group} | {wall} |")
    lines += ["", "## Tasks", "",
              "| task | kind | status | retries | cached | wall (s) |",
              "|---|---|---|---:|---|---:|"]
    by_tid = {r["tid"]: ("done", r) for r in done}
    by_tid.update({r["tid"]: ("failed", r) for r in failed})
    for tid, task in sorted(campaign.tasks.items()):
        state, record = by_tid.get(tid, ("pending", {}))
        lines.append(
            f"| {tid} | {task.kind} | {state} "
            f"| {record.get('retries', 0)} "
            f"| {'yes' if record.get('cached') else 'no'} "
            f"| {record.get('wall_s', '')} |")
    if failed:
        lines += ["", "## Failures", ""]
        for r in failed:
            lines.append(f"- `{r['tid']}`: {r.get('error', '?')} "
                         f"(after {r.get('retries', 0)} retries)")
    return "\n".join(lines) + "\n"


def merge_bench_record(summary: dict[str, Any],
                       bench_path: str | Path = "BENCH_mainsweep.json",
                       ) -> None:
    """Fold a campaign summary into the perf-trajectory record under the
    ``campaign`` key (read-modify-write; the sweep's own record fields are
    left untouched)."""
    bench_path = Path(bench_path)
    try:
        record = json.loads(bench_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        record = {"bench": "mainsweep"}
    record["campaign"] = {
        k: summary[k] for k in
        ("id", "spec", "total", "done", "failed", "cache_hits",
         "sim_wall_s", "generate")
        if k in summary
    }
    if "wall_s" in summary:
        record["campaign"]["wall_s"] = summary["wall_s"]
    if "workers" in summary:
        record["campaign"]["workers"] = summary["workers"]
    bench_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
